package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// defaultSeed is the seed the reference rows were recorded at. It is
// also the arrival seed RunOverloadCase uses, so kern-overload at this
// seed reproduces the overload sweep's arrival stream.
const defaultSeed = 42

// size fixes the simulated work of one run of a workload.
type size struct {
	name  string
	scale experiments.Scale
	pools int // container pools of the scaleout workloads
}

var (
	// quick is the benchmark's size: the harness's quick scale.
	quick = size{name: "quick", scale: experiments.QuickScale, pools: 8}
	// tiny runs every workload through the same code in well under a
	// second, for the benchmark's own tests.
	tiny = size{name: "tiny", scale: experiments.Scale{
		Factor: 0.02, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond,
	}, pools: 2}
)

func sizeNamed(name string) (size, error) {
	for _, s := range []size{quick, tiny} {
		if s.name == name {
			return s, nil
		}
	}
	return size{}, fmt.Errorf("unknown size %q", name)
}

// outcome is what one run of a workload produced in simulation: its
// result row, the simulated operations it issued and saw fail, and any
// broken invariant of the row.
type outcome struct {
	row      string
	ops      uint64
	failed   uint64
	problems []string
}

// workload is one simulator run the benchmark times. run must call
// hook on the testbed it builds, before the engine processes any event.
type workload struct {
	name string
	// seeded reports whether the seed changes the workload's input;
	// the rows of an unseeded workload must match the reference at
	// every seed.
	seeded bool
	run    func(seed int64, sz size, hook func(*core.Testbed)) outcome
}

var workloadList = []workload{
	{name: "fuse-seqread", run: func(_ int64, sz size, hook func(*core.Testbed)) outcome {
		return seqScaleout(core.ConfigF, false, sz, hook)
	}},
	{name: "kern-overload", seeded: true, run: kernOverload},
	{name: "danaus-seqwrite", run: func(_ int64, sz size, hook func(*core.Testbed)) outcome {
		return seqScaleout(core.ConfigD, true, sz, hook)
	}},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// seqScaleout runs one Fig 9 point through the experiments runner.
// SeqIO has no random input. Its transfers are 1 MiB, so the
// throughput over the measurement window gives the number of transfers
// measured. SeqIO does not report per-transfer errors; a wrong row
// shows them instead.
func seqScaleout(config core.Configuration, write bool, sz size, hook func(*core.Testbed)) outcome {
	experiments.Observer = hook
	defer func() { experiments.Observer = nil }()
	row := experiments.RunSeqIOScaleout(config, sz.pools, write, sz.scale)
	ops := uint64(math.Round(row.ThroughputMBps * sz.scale.Duration.Seconds()))
	return outcome{row: rowString(row), ops: ops}
}

// rowString renders every field of a result row at full precision, not
// the rounded harness line of the row's String method.
func rowString(row any) string {
	switch r := row.(type) {
	case experiments.ScaleoutRow:
		type fields experiments.ScaleoutRow
		return fmt.Sprintf("%+v", fields(r))
	case experiments.OverloadRow:
		type fields experiments.OverloadRow
		return fmt.Sprintf("%+v", fields(r))
	}
	panic(fmt.Sprintf("rowString: unexpected row type %T", row))
}

// Shape of kern-overload: the unprotected kernel client under an
// open-loop aggressor at 8x the overload sweep's base rate of 1500
// req/s, with cold reads of the sweep's sizes.
const (
	overloadMultiplier = 8
	overloadBaseRate   = 1500.0
	overloadOpSize     = 256 << 10
	victimReadChunk    = 128 << 10
)

// kernOverloadCase is the overload-sweep case kern-overload reproduces
// at the default seed.
var kernOverloadCase = experiments.OverloadCase{
	Label: "K", Config: core.ConfigK, Multiplier: overloadMultiplier,
}

// kernOverload is experiments.RunOverloadCase for kernOverloadCase,
// rebuilt from the core and workloads APIs so that the aggressor's
// arrival seed is the benchmark's seed and every victim read is
// counted. At the default seed its row equals RunOverloadCase's.
func kernOverload(seed int64, sz size, hook func(*core.Testbed)) outcome {
	scale := sz.scale
	c := kernOverloadCase
	tb := core.NewTestbed(core.TestbedConfig{Cores: 4, Params: scale.Params()})
	hook(tb)
	eng := tb.Eng

	row := experiments.OverloadRow{
		Label: c.Label, Config: c.Config, Multiplier: c.Multiplier,
		OfferedRate: overloadBaseRate * float64(c.Multiplier),
	}
	container := func(i int) (*core.Pool, *core.Container) {
		name := fmt.Sprintf("fls%d", i)
		upper := "/containers/" + name
		if err := tb.Cluster.ProvisionDir(upper); err != nil {
			panic(err)
		}
		pool := tb.NewPool(name, cpu.MaskRange(2*i, 2*i+2), scale.PoolMem())
		cont, err := pool.NewContainer(name, core.MountSpec{Config: c.Config, UpperDir: upper})
		if err != nil {
			panic(err)
		}
		return pool, cont
	}
	_, victim := container(0)
	aggPool, agg := container(1)

	coldSize := scale.PoolMem() + scale.PoolMem()/2
	var victimReads, victimErrors uint64

	eng.Go("master", func(p *sim.Proc) {
		prepCold := func(cont *core.Container) func(pp *sim.Proc) {
			return func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: cont.NewThread()}
				h, err := cont.Mount.Default.Open(ctx, "/cold", vfsapi.CREATE|vfsapi.WRONLY)
				if err != nil {
					panic(err)
				}
				for written := int64(0); written < coldSize; written += 1 << 20 {
					if _, err := h.Append(ctx, 1<<20); err != nil {
						panic(err)
					}
				}
				if err := h.Fsync(ctx); err != nil {
					panic(err)
				}
				if err := h.Close(ctx); err != nil {
					panic(err)
				}
			}
		}
		prep := workloads.NewGroup(eng)
		for i, fn := range []func(*sim.Proc){prepCold(victim), prepCold(agg)} {
			prep.Go(fmt.Sprintf("prep%d", i), fn)
		}
		prep.Wait(p)

		now := eng.Now()
		clock := workloads.Clock{Eng: eng, From: now + scale.Warmup, Stop: now + scale.Warmup + scale.Duration}
		vicStats := workloads.NewStats()
		aggStats := workloads.NewStats()

		g := workloads.NewGroup(eng)
		g.Go("victim-reader", func(pp *sim.Proc) {
			ctx := vfsapi.Ctx{P: pp, T: victim.NewThread()}
			h, err := victim.Mount.Default.Open(ctx, "/cold", vfsapi.RDONLY)
			if err != nil {
				panic(err)
			}
			defer h.Close(ctx)
			var off int64
			for !clock.Done() {
				start := pp.Now()
				n, rerr := h.Read(ctx, off, victimReadChunk)
				now := pp.Now()
				victimReads++
				if rerr != nil {
					victimErrors++
					if clock.Measuring() {
						vicStats.Errors++
					}
					pp.Sleep(time.Millisecond)
				} else if clock.Measuring() {
					vicStats.Record(n, now-start)
				}
				off += victimReadChunk
				if off >= coldSize {
					off = 0
				}
			}
		})
		ol := &workloads.OpenLoop{
			FS:        agg.Mount.Default,
			Path:      "/cold",
			FileSize:  coldSize,
			OpSize:    overloadOpSize,
			Rate:      row.OfferedRate,
			Seed:      seed,
			NewThread: agg.NewThread,
			Stats:     aggStats,
		}
		ol.Run(g, clock)
		g.Wait(p)

		row.VictimP99 = vicStats.Latency.Quantile(0.99)
		row.VictimMBps = vicStats.ThroughputMBps(clock.Window())
		row.Offered, row.Completed, row.Shed, row.Failed = ol.Offered, ol.Completed, ol.Shed, ol.Failed
		if ol.Offered > 0 {
			row.ShedRate = float64(ol.Shed) / float64(ol.Offered)
		}
		if a := aggPool.Admission; a != nil {
			row.Admission = a.Stats()
			row.QueueCap = a.QueueCap()
		}
		for _, cl := range []*core.Container{victim, agg} {
			if cl.Mount.Client != nil {
				row.BreakerOpens += cl.Mount.Client.BreakerStats().Opens
			}
		}
		row.BrownoutFlips = tb.Kernel.BrownoutFlips()
		tb.Stop()
	})
	eng.Run()

	out := outcome{
		row:    rowString(row),
		ops:    victimReads + row.Offered,
		failed: victimErrors + row.Failed,
	}
	if row.Offered != row.Completed+row.Shed+row.Failed {
		out.problems = append(out.problems, fmt.Sprintf(
			"kern-overload: offered %d != completed %d + shed %d + failed %d",
			row.Offered, row.Completed, row.Shed, row.Failed))
	}
	return out
}
