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
	Resumes:           96058,
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
