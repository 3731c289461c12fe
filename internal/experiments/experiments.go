// Package experiments reproduces every figure of the paper's
// evaluation (§2.1 motivation and §6 evaluation) and runs the isolation
// sweeps built on the same testbed. Every runner declares its Fig 5
// testbed as a Scenario: 2-core pools with private clients (scaleout),
// empty neighbour pools, or one whole-host pool of clones sharing a
// client over a shared image (scaleup), with an optional cost-model
// override. Scenario.Testbed builds it, the runner's master drives the
// Table 2 workloads, and Drive ends every run in the same drain checks
// (timeout ledger, admission accounting, span leaks), reported through
// the Drained sink. Each runner returns typed result rows mirroring the
// published plots.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// Scale selects experiment sizing. The discrete-event model preserves
// contention shape under scaling, so the default test scale runs in
// seconds of wall time while PaperScale matches the published
// parameters.
type Scale struct {
	// Factor scales dataset sizes (files, bytes).
	Factor float64
	// Duration is the measured window of timed workloads.
	Duration time.Duration
	// Warmup precedes measurement.
	Warmup time.Duration
}

// Predefined scales.
var (
	// QuickScale is for unit tests and -short benchmarks.
	QuickScale = Scale{Factor: 0.02, Duration: 2 * time.Second, Warmup: 500 * time.Millisecond}
	// DefaultScale balances fidelity and wall time for the harness.
	DefaultScale = Scale{Factor: 0.1, Duration: 8 * time.Second, Warmup: time.Second}
	// PaperScale matches the paper's parameters (120 s runs).
	PaperScale = Scale{Factor: 1.0, Duration: 120 * time.Second, Warmup: 5 * time.Second}
)

// PoolMem returns the pool memory reservation at the given scale. The
// paper reserves 8 GB per pool; scaling it with the datasets keeps the
// dirty-threshold and cache-pressure dynamics inside short windows.
func (s Scale) PoolMem() int64 {
	m := int64(float64(8<<30) * s.Factor)
	if m < 128<<20 {
		m = 128 << 20
	}
	return m
}

// Params derives a cost model whose writeback time constants are
// scaled with the experiment: preserving the ratio of file lifetime to
// the flusher intervals keeps the dirty-data dynamics of the paper's
// 120 s runs inside short windows.
func (s Scale) Params() *model.Params {
	p := model.Default()
	if s.Factor < 1 {
		// File lifetime in the Fileserver fileset scales with Factor,
		// so the writeback constants scale with it to preserve the
		// fraction of dirty data that lives long enough to be flushed.
		iv := time.Duration(float64(p.WritebackInterval) * s.Factor)
		if iv < 5*time.Millisecond {
			iv = 5 * time.Millisecond
		}
		if iv < p.WritebackInterval {
			p.WritebackInterval = iv
			p.DirtyExpire = 5 * iv
		}
	}
	return p
}

// Observer, when non-nil, is invoked on every testbed Scenario.Testbed
// builds, before any pool exists, except a Private run's — the hook
// through which danausbench attaches an observability recorder
// (core.Testbed.AttachObserver) to the runs of an experiment. Nil keeps
// experiments observation-free.
var Observer func(tb *core.Testbed)

// protection returns the overload policy of a sweep's protected cases
// (admission control, circuit breaker, brownout), or nil.
func protection(on bool) *core.OverloadPolicy {
	if !on {
		return nil
	}
	return &core.OverloadPolicy{RetrySeed: 1}
}

// flsPools returns n 2-core pools fls0, fls1, ... of one configuration,
// each with one container and a private client.
func flsPools(n int, config core.Configuration) []PoolSpec {
	pools := make([]PoolSpec, n)
	for i := range pools {
		pools[i] = PoolSpec{Name: fmt.Sprintf("fls%d", i), Config: config}
	}
	return pools
}

// newFileserver builds a Fileserver workload bound to a container.
func newFileserver(c *core.Container, scale Scale, seed int64) *workloads.Fileserver {
	w := &workloads.Fileserver{
		FS:        c.Mount.Default,
		Dir:       "/flsdata",
		NewThread: c.NewThread,
		Seed:      seed,
	}
	w.Defaults(scale.Factor)
	return w
}

// localFS is the host's local ext4 mount behind the syscall entry
// costs: where the RND and WBS neighbours keep their datasets.
func localFS(tb *core.Testbed) vfsapi.FileSystem {
	return kern.NewSyscalls(tb.Kernel, tb.LocalFS)
}

// load is one workload of a figure run: prepared on a fresh thread
// from thread before the clock starts (nil prepare: nothing to
// prepare), then run against the clock.
type load struct {
	prepare func(vfsapi.Ctx) error
	thread  func() *cpu.Thread
	run     func(*workloads.Group, workloads.Clock)
}

// prepLoads prepares the loads concurrently, one proc each (prep0,
// prep1, ...), and waits for all of them.
func prepLoads(p *sim.Proc, tb *core.Testbed, loads []load) {
	g := workloads.NewGroup(tb.Eng)
	for i, l := range loads {
		if l.prepare == nil {
			continue
		}
		l := l
		g.Go(fmt.Sprintf("prep%d", i), func(pp *sim.Proc) {
			if err := l.prepare(vfsapi.Ctx{P: pp, T: l.thread()}); err != nil {
				panic(err)
			}
		})
	}
	g.Wait(p)
}

// runLoads prepares the loads, starts the clock start returns (which
// may arm measurement windows on it) and runs every load against it,
// in order, until all of them finish.
func runLoads(p *sim.Proc, tb *core.Testbed, start func() workloads.Clock, loads ...load) workloads.Clock {
	prepLoads(p, tb, loads)
	clock := start()
	g := workloads.NewGroup(tb.Eng)
	for _, l := range loads {
		l.run(g, clock)
	}
	g.Wait(p)
	return clock
}

// clockNow is the clock of the unwindowed figures: it starts at once
// and measures every operation until the workloads finish.
func clockNow(tb *core.Testbed) func() workloads.Clock {
	return func() workloads.Clock { return workloads.Clock{Eng: tb.Eng, From: tb.Eng.Now()} }
}

// clockFor starts a measurement window at now+warmup.
func clockFor(eng *sim.Engine, scale Scale) workloads.Clock {
	now := eng.Now()
	return workloads.Clock{
		Eng:  eng,
		From: now + scale.Warmup,
		Stop: now + scale.Warmup + scale.Duration,
	}
}

// utilWindow samples the utilization of mask between the clock's
// measurement bounds, invoking done with the percentage-of-one-core sum
// (e.g. 2 fully busy cores = 200).
func utilWindow(tb *core.Testbed, clock workloads.Clock, mask cpu.Mask, out *float64) {
	var snap []time.Duration
	tb.Eng.After(clock.From-tb.Eng.Now(), func() {
		snap = tb.CPU.UtilSnapshot()
	})
	tb.Eng.After(clock.Stop-tb.Eng.Now(), func() {
		*out = tb.CPU.Utilization(mask, snap, clock.Stop-clock.From) * 100
	})
}

// lockWindow resets kernel lock statistics at measurement start and
// captures per-request wait/hold at the end.
func lockWindow(tb *core.Testbed, clock workloads.Clock, wait, hold *time.Duration) {
	tb.Eng.After(clock.From-tb.Eng.Now(), func() {
		tb.Kernel.ResetLockStats()
	})
	tb.Eng.After(clock.Stop-tb.Eng.Now(), func() {
		s := tb.Kernel.LockStats()
		*wait = s.AvgWait()
		*hold = s.AvgHold()
	})
}
