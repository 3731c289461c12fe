package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// stormGate pins the engine's work on a short K/unprotected 8x overload
// run: the case where every kernel fetch completion broadcasts to all
// readers waiting on the mount's fetch queue. The counts are
// deterministic. Like harness_quick.txt, regenerate them (from the
// failure message) only for a change meant to alter the schedule.
var stormGate = sim.Stats{
	Resumes:           69882,
	InlineWakes:       16521,
	Handoffs:          51852,
	ProcsSpawned:      1509,
	ProcsLive:         0,
	WakesAbsorbed:     63134,
	TimeoutsArmed:     64791,
	TimeoutsCancelled: 64680,
	TimeoutsFired:     111,
	TimeoutsPending:   0,
}

// TestKernOverloadWakeupGate fails on a count, not on a slowdown, if
// the page-fetch wakeup storm comes back: a reader whose range is still
// being fetched must cost the engine a re-check, not a goroutine
// resume, and a woken reader must leave no timeout behind.
func TestKernOverloadWakeupGate(t *testing.T) {
	var eng *sim.Engine
	Observer = func(tb *core.Testbed) { eng = tb.Eng }
	defer func() { Observer = nil }()
	scale := Scale{Factor: 0.02, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond}
	row := RunOverloadCase(OverloadCase{Label: "K", Config: core.ConfigK, Multiplier: 8}, scale)
	if row.Completed == 0 {
		t.Fatalf("aggressor completed nothing: %v", row)
	}
	got := eng.Stats()
	if got.TimeoutsArmed != got.TimeoutsCancelled+got.TimeoutsFired+got.TimeoutsPending {
		t.Fatalf("timeout ledger does not balance: %+v", got)
	}
	// Callbacks and the heap high-water marks are not gated: the storm
	// shows in resumes, absorbed wakes and timeouts.
	got.Callbacks, got.EventHeapHigh, got.TimerHeapHigh = 0, 0, 0
	if got != stormGate {
		t.Fatalf("engine work on K 8x overload changed:\n  got  %+v\n  want %+v", got, stormGate)
	}
}

// handoffGate pins the engine's work on F cached seqread with 2 pools at
// perfbench's tiny scale, the case dominated by FUSE crossings and the
// CPU runqueue. Each of its CPU bursts parks the process once: runqueue
// handoffs and the boundaries between back-to-back charges run as
// engine callbacks. Callbacks + Resumes must stay 204909, the total of
// the loop form in which every charge and every runqueue handoff
// resumed the process (105 callbacks, 204804 resumes): bursts change
// which kind an event is, never how many there are or when they run.
var handoffGate = sim.Stats{
	Callbacks:    122443,
	Resumes:      82466,
	InlineWakes:  6755,
	Handoffs:     75668,
	ProcsSpawned: 43,
}

// TestFuseSeqreadHandoffGate fails on a count if a FUSE crossing or a
// contended Exec goes back to resuming its process at every charge or
// runqueue handoff, or if the schedule changes.
func TestFuseSeqreadHandoffGate(t *testing.T) {
	var eng *sim.Engine
	Observer = func(tb *core.Testbed) { eng = tb.Eng }
	defer func() { Observer = nil }()
	scale := Scale{Factor: 0.02, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond}
	row := RunSeqIOScaleout(core.ConfigF, 2, false, scale)
	if row.ThroughputMBps == 0 {
		t.Fatalf("no throughput: %v", row)
	}
	got := eng.Stats()
	if sum := got.Callbacks + got.Resumes; sum != 204909 {
		t.Fatalf("engine events %d, want 204909: the schedule changed (%+v)", sum, got)
	}
	got = sim.Stats{Callbacks: got.Callbacks, Resumes: got.Resumes, InlineWakes: got.InlineWakes,
		Handoffs: got.Handoffs, ProcsSpawned: got.ProcsSpawned}
	if got != handoffGate {
		t.Fatalf("engine work on F seqread changed:\n  got  %+v\n  want %+v", got, handoffGate)
	}
}
