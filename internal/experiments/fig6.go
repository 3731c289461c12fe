package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// InterferenceRow is one bar (plus companion lines) of Fig 1 and
// Fig 6a/6b: a Fileserver deployment alone or next to a neighbour.
type InterferenceRow struct {
	// Label is the paper's workload symbol, e.g. "7FLS/K+1RND".
	Label string
	// FLSThroughputMBps is the aggregate Fileserver throughput.
	FLSThroughputMBps float64
	// NeighborCoreUtilPct is the utilization of the NEIGHBOUR pool's
	// reserved cores (sum over 2 cores: 0-200%). With the neighbour
	// idle this measures how much the kernel steals them for FLS.
	NeighborCoreUtilPct float64
	// LockWaitPerReq / LockHoldPerReq are kernel per-lock-request
	// times over the window (Fig 1b).
	LockWaitPerReq time.Duration
	LockHoldPerReq time.Duration

	// Diagnostics (not plotted in the paper).
	FLSCoreUtilPct float64       // utilization of the FLS pools' cores
	FLSIOWait      time.Duration // I/O wait accumulated by FLS pools
}

// InterferenceCase selects one bar of Fig 1/6a/6b.
type InterferenceCase struct {
	Config   core.Configuration // ConfigK or ConfigD
	FLSCount int                // 1 or 7
	Neighbor string             // "", "RND" or "WBS"
}

// Label renders the paper's symbol for the case.
func (c InterferenceCase) Label() string {
	s := fmt.Sprintf("%dFLS/%s", c.FLSCount, c.Config)
	if c.Neighbor != "" {
		s += "+1" + c.Neighbor
	}
	return s
}

// RunInterference executes one Fig 1/6a/6b case: FLSCount Fileserver
// instances over the given client configuration, with the neighbour
// pool always reserved (2 cores) and optionally running RND or WBS.
func RunInterference(c InterferenceCase, scale Scale) InterferenceRow {
	// Enabled cores: two per instance including the neighbour pool,
	// matching the paper's "twice the number of running instances".
	cores := 2 * (c.FLSCount + 1)
	r := newScaledRig(cores, scale, nil)
	row := InterferenceRow{Label: c.Label()}

	// Fileserver pools and containers on the cluster.
	type flsInst struct {
		c *core.Container
		w *workloads.Fileserver
	}
	insts := make([]flsInst, c.FLSCount)
	for i := range insts {
		_, cont, err := r.flsContainer(i, c.Config, scale)
		if err != nil {
			panic(err)
		}
		insts[i] = flsInst{c: cont, w: newFileserver(cont, scale, int64(i)+1)}
	}

	// The neighbour pool occupies the last two cores.
	nbrMask := cpu.MaskRange(2*c.FLSCount, 2*c.FLSCount+2)
	nbrPool := r.tb.NewPool("neighbor", nbrMask, scale.PoolMem())

	var rnd *workloads.RandomIO
	var wbs *workloads.Webserver
	localFS := kernelLocalFS(r.tb)
	switch c.Neighbor {
	case "RND":
		rnd = &workloads.RandomIO{
			FS:         localFS,
			Path:       "/rndfile",
			NewThread:  func() *cpu.Thread { return r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask) },
			Seed:       99,
			LockStress: r.tb.Kernel.SmallOpLockStress,
		}
		rnd.Defaults(scale.Factor)
	case "WBS":
		wbs = &workloads.Webserver{
			FS:        localFS,
			Dir:       "/web",
			NewThread: func() *cpu.Thread { return r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask) },
			Seed:      77,
		}
		wbs.Defaults(scale.Factor)
	}

	r.runMaster(func(p *sim.Proc) {
		// Preparation: FLS filesets in parallel, neighbour dataset too.
		preps := make([]func(pp *sim.Proc), 0, len(insts)+1)
		for _, in := range insts {
			in := in
			preps = append(preps, func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: in.c.NewThread()}
				if err := in.w.Prepare(ctx); err != nil {
					panic(err)
				}
			})
		}
		if rnd != nil {
			preps = append(preps, func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask)}
				if err := rnd.Prepare(ctx); err != nil {
					panic(err)
				}
			})
		}
		if wbs != nil {
			preps = append(preps, func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask)}
				if err := wbs.Prepare(ctx); err != nil {
					panic(err)
				}
			})
		}
		prepare(p, r.tb.Eng, preps...)

		clock := clockFor(r.tb.Eng, scale)
		utilWindow(r.tb, clock, nbrMask, &row.NeighborCoreUtilPct)
		utilWindow(r.tb, clock, cpu.MaskRange(0, 2*c.FLSCount), &row.FLSCoreUtilPct)
		lockWindow(r.tb, clock, &row.LockWaitPerReq, &row.LockHoldPerReq)
		var iowaitStart time.Duration
		r.tb.Eng.After(clock.From-r.tb.Eng.Now(), func() {
			for _, in := range insts {
				iowaitStart += in.c.Pool.Acct.IOWait()
			}
		})
		defer func() {}()

		g := workloads.NewGroup(r.tb.Eng)
		for _, in := range insts {
			in.w.Run(g, clock)
		}
		if rnd != nil {
			rnd.Run(g, clock)
		}
		if wbs != nil {
			wbs.Run(g, clock)
		}
		g.Wait(p)

		var mbps float64
		for _, in := range insts {
			mbps += in.w.Stats.ThroughputMBps(clock.Window())
			row.FLSIOWait += in.c.Pool.Acct.IOWait()
		}
		row.FLSIOWait -= iowaitStart
		row.FLSThroughputMBps = mbps
	})
	return row
}

// kernelLocalFS returns the syscall-wrapped local ext4 filesystem of
// the host (where RND and WBS keep their data).
func kernelLocalFS(tb *core.Testbed) vfsapi.FileSystem {
	return newSyscallLocal(tb)
}

// Fig1Cases returns the §2.1 motivation cases (kernel client only).
func Fig1Cases() []InterferenceCase {
	return []InterferenceCase{
		{Config: core.ConfigK, FLSCount: 1},
		{Config: core.ConfigK, FLSCount: 1, Neighbor: "RND"},
		{Config: core.ConfigK, FLSCount: 7},
		{Config: core.ConfigK, FLSCount: 7, Neighbor: "RND"},
	}
}

// Fig6aCases returns the Fig 6a comparison (D vs K, with/without RND).
func Fig6aCases() []InterferenceCase {
	var out []InterferenceCase
	for _, cfg := range []core.Configuration{core.ConfigK, core.ConfigD} {
		for _, n := range []int{1, 7} {
			out = append(out,
				InterferenceCase{Config: cfg, FLSCount: n},
				InterferenceCase{Config: cfg, FLSCount: n, Neighbor: "RND"},
			)
		}
	}
	return out
}

// Fig6bCases returns the Fig 6b comparison (D vs K, with/without WBS).
func Fig6bCases() []InterferenceCase {
	var out []InterferenceCase
	for _, cfg := range []core.Configuration{core.ConfigK, core.ConfigD} {
		for _, n := range []int{1, 7} {
			out = append(out,
				InterferenceCase{Config: cfg, FLSCount: n},
				InterferenceCase{Config: cfg, FLSCount: n, Neighbor: "WBS"},
			)
		}
	}
	return out
}

// SysbenchRow is one group of Fig 6c: latencies of the colocated pair.
type SysbenchRow struct {
	Label string
	// SSBLatencyP99 is the 99th percentile Sysbench event latency.
	SSBLatencyP99 time.Duration
	// FLSLatencyAvg is the mean Fileserver operation latency.
	FLSLatencyAvg time.Duration
	// SSBCoreUtilPct is utilization of the SSB pool's cores.
	SSBCoreUtilPct float64
}

// SysbenchCase selects one Fig 6c group.
type SysbenchCase struct {
	Config  core.Configuration
	WithSSB bool
}

// Label renders the paper's symbol.
func (c SysbenchCase) Label() string {
	s := "1FLS/" + c.Config.String()
	if c.WithSSB {
		s += "+1SSB"
	}
	return s
}

// Fig6cCases returns the Fig 6c comparison.
func Fig6cCases() []SysbenchCase {
	return []SysbenchCase{
		{Config: core.ConfigK, WithSSB: false},
		{Config: core.ConfigK, WithSSB: true},
		{Config: core.ConfigD, WithSSB: false},
		{Config: core.ConfigD, WithSSB: true},
	}
}

// RunSysbench executes one Fig 6c case: 1 FLS instance next to an
// optional Sysbench CPU instance.
func RunSysbench(c SysbenchCase, scale Scale) SysbenchRow {
	r := newScaledRig(4, scale, nil)
	row := SysbenchRow{Label: c.Label()}
	_, cont, err := r.flsContainer(0, c.Config, scale)
	if err != nil {
		panic(err)
	}
	fls := newFileserver(cont, scale, 1)

	ssbMask := cpu.MaskRange(2, 4)
	ssbPool := r.tb.NewPool("ssb", ssbMask, scale.PoolMem())
	ssb := &workloads.Sysbench{
		NewThread: func() *cpu.Thread { return r.tb.CPU.NewThread(ssbPool.Acct, ssbPool.Mask) },
	}
	ssb.Defaults()

	r.runMaster(func(p *sim.Proc) {
		prepare(p, r.tb.Eng, func(pp *sim.Proc) {
			ctx := vfsapi.Ctx{P: pp, T: cont.NewThread()}
			if err := fls.Prepare(ctx); err != nil {
				panic(err)
			}
		})
		clock := clockFor(r.tb.Eng, scale)
		utilWindow(r.tb, clock, ssbMask, &row.SSBCoreUtilPct)
		g := workloads.NewGroup(r.tb.Eng)
		fls.Run(g, clock)
		if c.WithSSB {
			ssb.Run(g, clock)
		}
		g.Wait(p)
		row.FLSLatencyAvg = fls.Stats.Latency.Mean()
		if c.WithSSB {
			row.SSBLatencyP99 = ssb.Stats.Latency.Quantile(0.99)
		}
	})
	return row
}
