package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// KVRow is one point of the Fig 7 curves: mean put or get latency of
// the key-value store across pools or clones.
type KVRow struct {
	Config core.Configuration
	Count  int // pools (scaleout) or clones (scaleup)
	// PutLatency / GetLatency are means over the measured phase.
	PutLatency time.Duration
	GetLatency time.Duration
}

// String renders the row for the harness.
func (r KVRow) String() string {
	return fmt.Sprintf("%-5s n=%-3d put=%-12v get=%v", r.Config, r.Count, r.PutLatency, r.GetLatency)
}

// KVPhase selects the measured phase.
type KVPhase int

// Phases of the Fig 7 experiments.
const (
	// PhasePut measures random inserts (Fig 7a/7c).
	PhasePut KVPhase = iota
	// PhaseGet populates an out-of-core dataset first, then measures
	// random lookups (Fig 7b/7d).
	PhaseGet
)

// RunKVScaleout executes one Fig 7a/7b point: `pools` independent
// container pools, each with a private client and a private store.
func RunKVScaleout(config core.Configuration, pools int, phase KVPhase, scale Scale) KVRow {
	tb, conts := Scenario{Scale: scale, Cores: 2 * pools, Pools: flsPools(pools, config)}.Testbed()
	return runKV(tb, conts, phase, scale, KVRow{Config: config, Count: pools})
}

// RunKVScaleup executes one Fig 7c/7d point: `clones` cloned containers
// in a single pool, sharing one backend client under private unions.
func RunKVScaleup(config core.Configuration, clones int, phase KVPhase, scale Scale) KVRow {
	tb, _ := scaleupSpec("clone", config, 64, scale, Scaleup{Clones: clones, Mem: int64(clones), Lower: "/images/base",
		Image: []File{{Path: "/images/base/etc/os-release", Size: 4 << 10}}}).Testbed()
	return runKV(tb, tb.Pools()[0].Containers(), phase, scale, KVRow{Config: config, Count: clones})
}

// scaleupSpec is one scaleup point: a host of 2 cores per clone (at
// least 4, at most maxCores) holding one whole-host pool, name, of
// clones of config.
func scaleupSpec(name string, config core.Configuration, maxCores int, scale Scale, up Scaleup) Scenario {
	cores := 2 * up.Clones
	if cores > maxCores {
		cores = maxCores
	}
	if cores < 4 {
		cores = 4
	}
	return Scenario{Scale: scale, Cores: cores, Pools: []PoolSpec{{Name: name, Config: config, Scaleup: &up}}}
}

// runKV opens a store on each container's root filesystem (for gets,
// populating it too), runs the measured phase concurrently across the
// stores and averages their mean latencies.
func runKV(tb *core.Testbed, conts []*core.Container, phase KVPhase, scale Scale, row KVRow) KVRow {
	memtable := int64(float64(64<<20) * scale.Factor * 4)
	if memtable < 4<<20 {
		memtable = 4 << 20
	}
	dbs := make([]*kvstore.DB, len(conts))
	keys := make([][]uint64, len(conts))
	stats := make([]*workloads.Stats, len(conts))
	loads := make([]load, len(conts))
	for i, cont := range conts {
		i, cont := i, cont
		open := func(ctx vfsapi.Ctx) (err error) {
			dbs[i], err = kvstore.Open(ctx, kvstore.Config{FS: cont.Mount.Default, Dir: "/rocksdb",
				MemtableBytes: memtable, Eng: tb.Eng, Params: tb.Params, NewThread: cont.NewThread})
			if err != nil || phase != PhaseGet {
				return err
			}
			// The paper populates 8 GB before reading back: an
			// out-of-core dataset relative to the client cache.
			total := int64(float64(8<<30) * scale.Factor)
			if total < 32<<20 {
				total = 32 << 20
			}
			keys[i], err = workloads.Populate(ctx, dbs[i], total, 128<<10, int64(i)+13)
			return err
		}
		run := func(g *workloads.Group, clock workloads.Clock) {
			if phase == PhasePut {
				w := &workloads.KVPut{DB: dbs[i], Seed: int64(i) + 7, NewThread: cont.NewThread}
				w.Defaults(scale.Factor)
				stats[i] = w.Stats
				w.Run(g, clock)
				return
			}
			w := &workloads.KVGet{DB: dbs[i], Keys: keys[i], Seed: int64(i) + 7, NewThread: cont.NewThread}
			w.Defaults(scale.Factor)
			stats[i] = w.Stats
			w.Run(g, clock)
		}
		loads[i] = load{open, cont.NewThread, run}
	}
	Drive(tb, func(p *sim.Proc) {
		runLoads(p, tb, clockNow(tb), loads...)
		// The mean over the stores that measured any operation.
		var sum time.Duration
		n := 0
		for i, s := range stats {
			if s.Latency.Count() > 0 {
				sum += s.Latency.Mean()
				n++
			}
			dbs[i].Close(vfsapi.Ctx{P: p, T: conts[i].NewThread()})
		}
		var mean time.Duration
		if n > 0 {
			mean = sum / time.Duration(n)
		}
		if phase == PhasePut {
			row.PutLatency = mean
		} else {
			row.GetLatency = mean
		}
	})
	return row
}

// Fig7ScaleoutCounts returns the paper's pool sweep (1-32).
func Fig7ScaleoutCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig7ScaleupCounts returns the paper's clone sweep (1-32).
func Fig7ScaleupCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig7aConfigs lists the scaleout comparison set.
func Fig7aConfigs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigF, core.ConfigK}
}

// Fig7cConfigs lists the scaleup comparison set.
func Fig7cConfigs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigFF, core.ConfigFK, core.ConfigKK}
}
