package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestGoldenTraceDeterminism runs a small mixed workload — a Danaus
// Fileserver container next to a kernel-filesystem RandomIO neighbour —
// twice and requires the full engine event trace, the kernel lock
// statistics and the per-core utilization to be identical. This guards
// the hot-path optimizations (quantum coalescing, inline event
// execution, direct proc handoff) at the strongest granularity: not
// just equal results, but an identical event-for-event schedule.
func TestGoldenTraceDeterminism(t *testing.T) {
	scale := Scale{Factor: 0.02}
	type outcome struct {
		trace []sim.TraceEvent
		locks sim.LockStats
		util  []time.Duration
		end   time.Duration
	}
	run := func() outcome {
		s := Scenario{Scale: scale, Cores: 4, Pools: append(flsPools(1, core.ConfigD), PoolSpec{Name: "nbr", NoContainer: true})}
		tb, conts := s.Testbed()
		var o outcome
		tb.Eng.SetTracer(func(ev sim.TraceEvent) { o.trace = append(o.trace, ev) })
		fls := newFileserver(conts[0], scale, 7)
		rnd := &workloads.RandomIO{
			FS:         localFS(tb),
			Path:       "/rndfile",
			NewThread:  tb.Pools()[1].NewThread,
			Seed:       3,
			LockStress: tb.Kernel.SmallOpLockStress,
		}
		rnd.Defaults(scale.Factor)
		if vs := Drive(tb, func(p *sim.Proc) {
			runLoads(p, tb, func() workloads.Clock { return clockFor(tb.Eng, scale) },
				load{fls.Prepare, fls.NewThread, fls.Run}, load{rnd.Prepare, rnd.NewThread, rnd.Run})
		}); len(vs) > 0 {
			t.Errorf("drain checks: %v", vs)
		}
		o.locks = tb.Kernel.LockStats()
		o.util = tb.CPU.UtilSnapshot()
		o.end = tb.Eng.Now()
		return o
	}

	a, b := run(), run()
	if len(a.trace) == 0 {
		t.Fatal("tracer observed no events")
	}
	if len(a.trace) != len(b.trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("trace diverges at event %d: %+v vs %+v", i, a.trace[i], b.trace[i])
		}
	}
	if a.locks != b.locks {
		t.Errorf("lock stats differ:\n  %+v\n  %+v", a.locks, b.locks)
	}
	if !reflect.DeepEqual(a.util, b.util) {
		t.Errorf("core utilization differs:\n  %v\n  %v", a.util, b.util)
	}
	if a.end != b.end {
		t.Errorf("end times differ: %v vs %v", a.end, b.end)
	}
}
