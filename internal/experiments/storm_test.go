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
// Callbacks + Resumes must stay stormEvents: link transfers run as
// sim.Chain callbacks, which changes which kind an event is, never how
// many there are or when they run.
var stormGate = sim.Stats{
	Resumes:           34460,
	InlineWakes:       4219,
	Handoffs:          28732,
	ProcsSpawned:      1509,
	ProcsLive:         0,
	WakesAbsorbed:     63134,
	TimeoutsArmed:     64791,
	TimeoutsCancelled: 64680,
	TimeoutsFired:     111,
	TimeoutsPending:   0,
}

const stormEvents = 160263

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
	if sum := got.Callbacks + got.Resumes; sum != stormEvents {
		t.Fatalf("engine events %d, want %d: the schedule changed (%+v)", sum, stormEvents, got)
	}
	// Callbacks are gated through the sum above, and the heap high-water
	// marks not at all: the storm shows in resumes, absorbed wakes and
	// timeouts.
	got.Callbacks, got.EventHeapHigh, got.TimerHeapHigh = 0, 0, 0
	if got != stormGate {
		t.Fatalf("engine work on K 8x overload changed:\n  got  %+v\n  want %+v", got, stormGate)
	}
}

// handoffGate pins the engine's work on F cached seqread with 2 pools at
// perfbench's tiny scale, the case dominated by FUSE crossings, the CPU
// runqueue and client_lock. A FUSE crossing's entry, a cached read in
// cephclient and the crossing's reply each park the process once: CPU
// slices, runqueue, daemon-slot and client_lock handoffs run as
// sim.Chain callbacks. Callbacks + Resumes must stay 204909, the total
// of the loop form in which every charge and every handoff resumed the
// process (105 callbacks, 204804 resumes): chains change which kind an
// event is, never how many there are or when they run.
var handoffGate = sim.Stats{
	Callbacks:    180221,
	Resumes:      24688,
	InlineWakes:  2835,
	Handoffs:     21810,
	ProcsSpawned: 43,
}

// TestFuseSeqreadHandoffGate fails on a count if a FUSE crossing, a
// cephclient read or a contended Exec goes back to resuming its process
// at every charge or handoff, or if the schedule changes.
func TestFuseSeqreadHandoffGate(t *testing.T) {
	got := seqScaleoutStats(t, core.ConfigF, false)
	if sum := got.Callbacks + got.Resumes; sum != 204909 {
		t.Fatalf("engine events %d, want 204909: the schedule changed (%+v)", sum, got)
	}
	if got != handoffGate {
		t.Fatalf("engine work on F seqread changed:\n  got  %+v\n  want %+v", got, handoffGate)
	}
}

// seqwriteGate pins the engine's work on D seqwrite with 2 pools at
// perfbench's tiny scale: the write path through ipc, unionfs,
// cephclient's dirty data and flusher, the cluster and netsim, whose
// link transfers and client_lock copies run as sim.Chain callbacks.
// Callbacks + Resumes must stay 78133, the total before those chains.
var seqwriteGate = sim.Stats{
	Callbacks:    52934,
	Resumes:      25199,
	InlineWakes:  1484,
	Handoffs:     23672,
	ProcsSpawned: 43,
}

// TestDanausSeqwriteHandoffGate fails on a count if a link transfer or
// a cephclient write goes back to resuming its process at every chunk,
// lock or charge, or if the schedule changes.
func TestDanausSeqwriteHandoffGate(t *testing.T) {
	got := seqScaleoutStats(t, core.ConfigD, true)
	if sum := got.Callbacks + got.Resumes; sum != 78133 {
		t.Fatalf("engine events %d, want 78133: the schedule changed (%+v)", sum, got)
	}
	if got != seqwriteGate {
		t.Fatalf("engine work on D seqwrite changed:\n  got  %+v\n  want %+v", got, seqwriteGate)
	}
}

// seqScaleoutStats runs a 2-pool Fig 9 point at perfbench's tiny scale
// and returns the engine's resume, callback and process counts.
func seqScaleoutStats(t *testing.T, config core.Configuration, write bool) sim.Stats {
	t.Helper()
	var eng *sim.Engine
	Observer = func(tb *core.Testbed) { eng = tb.Eng }
	defer func() { Observer = nil }()
	scale := Scale{Factor: 0.02, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond}
	row := RunSeqIOScaleout(config, 2, write, scale)
	if row.ThroughputMBps == 0 {
		t.Fatalf("no throughput: %v", row)
	}
	got := eng.Stats()
	return sim.Stats{Callbacks: got.Callbacks, Resumes: got.Resumes, InlineWakes: got.InlineWakes,
		Handoffs: got.Handoffs, ProcsSpawned: got.ProcsSpawned}
}
