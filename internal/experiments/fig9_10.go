package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ScaleoutRow is one point of the Fig 9 / Fig 10 scaleout curves.
type ScaleoutRow struct {
	Config core.Configuration
	Pools  int
	// ThroughputMBps is the aggregate throughput across all pools.
	ThroughputMBps float64
	// UserPct/KernelPct are mean per-pool core utilization percentages
	// (of the pools' own reserved cores).
	UserPct   float64
	KernelPct float64
	// IOWait is total time application threads spent blocked in kernel
	// I/O paths (the paper's iowait bars).
	IOWait time.Duration
}

// RunSeqIOScaleout executes one Fig 9 point: `pools` container pools,
// each with a private client of the given configuration, running
// Seqwrite (write=true) or cached Seqread (write=false).
func RunSeqIOScaleout(config core.Configuration, pools int, write bool, scale Scale) ScaleoutRow {
	return runScaleout(config, pools, scale, func(_ int, c *core.Container) (load, *workloads.Stats) {
		w := &workloads.SeqIO{FS: c.Mount.Default, Dir: "/seq", Write: write, NewThread: c.NewThread}
		w.Defaults(scale.Factor)
		return load{w.Prepare, w.NewThread, w.Run}, w.Stats
	})
}

// RunFileserverScaleout executes one Fig 10 point: `pools` pools each
// running a Fileserver instance over a private client.
func RunFileserverScaleout(config core.Configuration, pools int, scale Scale) ScaleoutRow {
	return runScaleout(config, pools, scale, func(i int, c *core.Container) (load, *workloads.Stats) {
		w := newFileserver(c, scale, int64(i)+1)
		return load{w.Prepare, w.NewThread, w.Run}, w.Stats
	})
}

// runScaleout runs one scaleout point: `pools` 2-core pools, each with
// a private client of config and the workload newLoad binds to its
// container. It sums the throughput and averages the pools' user and
// kernel core shares over the measurement window.
func runScaleout(config core.Configuration, pools int, scale Scale, newLoad func(int, *core.Container) (load, *workloads.Stats)) ScaleoutRow {
	tb, conts := Scenario{Scale: scale, Cores: 2 * pools, Pools: flsPools(pools, config)}.Testbed()
	row := ScaleoutRow{Config: config, Pools: pools}
	loads := make([]load, pools)
	stats := make([]*workloads.Stats, pools)
	for i, c := range conts {
		loads[i], stats[i] = newLoad(i, c)
	}
	acct := func() (user, kern, iowait time.Duration) {
		for _, c := range conts {
			s := c.Pool.Acct.Snapshot()
			user += s.UserTime
			kern += s.KernelTime
			iowait += s.IOWait
		}
		return
	}
	Drive(tb, func(p *sim.Proc) {
		var userStart, kernStart, iowaitStart time.Duration
		clock := runLoads(p, tb, func() workloads.Clock {
			clock := clockFor(tb.Eng, scale)
			tb.Eng.After(clock.From-tb.Eng.Now(), func() { userStart, kernStart, iowaitStart = acct() })
			return clock
		}, loads...)
		user, kern, iowait := acct()
		window := clock.Window()
		totalCores := float64(2 * pools)
		row.UserPct = float64(user-userStart) / float64(window) / totalCores * 100
		row.KernelPct = float64(kern-kernStart) / float64(window) / totalCores * 100
		row.IOWait = iowait - iowaitStart
		for _, s := range stats {
			row.ThroughputMBps += s.ThroughputMBps(window)
		}
	})
	return row
}

// Fig9PoolCounts returns the paper's pool sweep for Fig 9.
func Fig9PoolCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig10PoolCounts returns the paper's pool sweep for Fig 10.
func Fig10PoolCounts() []int { return []int{1, 2, 4, 8, 16} }

// String renders a row for the harness.
func (r ScaleoutRow) String() string {
	return fmt.Sprintf("%-4s pools=%-3d %9.1f MB/s  user %5.1f%% kernel %5.1f%%  iowait %v",
		r.Config, r.Pools, r.ThroughputMBps, r.UserPct, r.KernelPct, r.IOWait)
}
