package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
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

// String renders the row for the harness.
func (r InterferenceRow) String() string {
	return fmt.Sprintf("%-14s %9.1f MB/s   neighbor-cores %6.1f%%   lock wait/req %-12v hold/req %v",
		r.Label, r.FLSThroughputMBps, r.NeighborCoreUtilPct, r.LockWaitPerReq, r.LockHoldPerReq)
}

// interferenceSpec is one Fig 1/6a/6b case as a scenario: FLSCount
// Fileserver pools of the case's configuration and, on the last two
// cores, the always-reserved neighbour pool. Enabled cores are two per
// instance including the neighbour, matching the paper's "twice the
// number of running instances".
func interferenceSpec(c InterferenceCase, scale Scale) Scenario {
	pools := append(flsPools(c.FLSCount, c.Config), PoolSpec{Name: "neighbor", NoContainer: true})
	return Scenario{Scale: scale, Cores: 2 * (c.FLSCount + 1), Pools: pools}
}

// RunInterference executes one Fig 1/6a/6b case: FLSCount Fileserver
// instances over the given client configuration, with the neighbour
// pool always reserved (2 cores) and optionally running RND or WBS.
func RunInterference(c InterferenceCase, scale Scale) InterferenceRow {
	tb, conts := interferenceSpec(c, scale).Testbed()
	return runInterference(c, scale, tb, conts)
}

// runInterference drives a built interference testbed to its row.
func runInterference(c InterferenceCase, scale Scale, tb *core.Testbed, conts []*core.Container) InterferenceRow {
	row := InterferenceRow{Label: c.Label()}
	fls := conts[:c.FLSCount]
	nbr := tb.Pools()[c.FLSCount]
	loads := make([]load, 0, len(fls)+1)
	servers := make([]*workloads.Fileserver, len(fls))
	for i, cont := range fls {
		w := newFileserver(cont, scale, int64(i)+1)
		servers[i] = w
		loads = append(loads, load{w.Prepare, w.NewThread, w.Run})
	}
	switch c.Neighbor {
	case "RND":
		w := &workloads.RandomIO{FS: localFS(tb), Path: "/rndfile", NewThread: nbr.NewThread, Seed: 99,
			LockStress: tb.Kernel.SmallOpLockStress}
		w.Defaults(scale.Factor)
		loads = append(loads, load{w.Prepare, w.NewThread, w.Run})
	case "WBS":
		w := &workloads.Webserver{FS: localFS(tb), Dir: "/web", NewThread: nbr.NewThread, Seed: 77}
		w.Defaults(scale.Factor)
		loads = append(loads, load{w.Prepare, w.NewThread, w.Run})
	}

	Drive(tb, func(p *sim.Proc) {
		var iowaitStart time.Duration
		clock := runLoads(p, tb, func() workloads.Clock {
			clock := clockFor(tb.Eng, scale)
			utilWindow(tb, clock, nbr.Mask, &row.NeighborCoreUtilPct)
			utilWindow(tb, clock, cpu.MaskRange(0, 2*c.FLSCount), &row.FLSCoreUtilPct)
			lockWindow(tb, clock, &row.LockWaitPerReq, &row.LockHoldPerReq)
			tb.Eng.After(clock.From-tb.Eng.Now(), func() {
				for _, cont := range fls {
					iowaitStart += cont.Pool.Acct.IOWait()
				}
			})
			return clock
		}, loads...)
		for i, w := range servers {
			row.FLSThroughputMBps += w.Stats.ThroughputMBps(clock.Window())
			row.FLSIOWait += fls[i].Pool.Acct.IOWait()
		}
		row.FLSIOWait -= iowaitStart
	})
	return row
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
func Fig6aCases() []InterferenceCase { return neighborCases("RND") }

// Fig6bCases returns the Fig 6b comparison (D vs K, with/without WBS).
func Fig6bCases() []InterferenceCase { return neighborCases("WBS") }

// neighborCases pairs K and then D at 1 and 7 Fileserver instances,
// each alone and next to the neighbour.
func neighborCases(neighbor string) []InterferenceCase {
	var out []InterferenceCase
	for _, cfg := range []core.Configuration{core.ConfigK, core.ConfigD} {
		for _, n := range []int{1, 7} {
			out = append(out,
				InterferenceCase{Config: cfg, FLSCount: n},
				InterferenceCase{Config: cfg, FLSCount: n, Neighbor: neighbor},
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

// String renders the row for the harness.
func (r SysbenchRow) String() string {
	return fmt.Sprintf("%-14s ssb-p99 %-12v fls-avg %-12v ssb-cores %6.1f%%",
		r.Label, r.SSBLatencyP99, r.FLSLatencyAvg, r.SSBCoreUtilPct)
}

// RunSysbench executes one Fig 6c case: 1 FLS instance next to an
// optional Sysbench CPU instance in the reserved ssb pool.
func RunSysbench(c SysbenchCase, scale Scale) SysbenchRow {
	s := Scenario{Scale: scale, Cores: 4, Pools: append(flsPools(1, c.Config), PoolSpec{Name: "ssb", NoContainer: true})}
	tb, conts := s.Testbed()
	row := SysbenchRow{Label: c.Label()}
	fls := newFileserver(conts[0], scale, 1)
	ssbPool := tb.Pools()[1]
	ssb := &workloads.Sysbench{NewThread: ssbPool.NewThread}
	ssb.Defaults()
	loads := []load{{fls.Prepare, fls.NewThread, fls.Run}}
	if c.WithSSB {
		loads = append(loads, load{run: ssb.Run})
	}
	Drive(tb, func(p *sim.Proc) {
		runLoads(p, tb, func() workloads.Clock {
			clock := clockFor(tb.Eng, scale)
			utilWindow(tb, clock, ssbPool.Mask, &row.SSBCoreUtilPct)
			return clock
		}, loads...)
		row.FLSLatencyAvg = fls.Stats.Latency.Mean()
		if c.WithSSB {
			row.SSBLatencyP99 = ssb.Stats.Latency.Quantile(0.99)
		}
	})
	return row
}
