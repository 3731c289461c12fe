package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/kern"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// Scenario declares one victim/bystander isolation run. RunScenario
// builds, drives and harvests it, so the fault, crash, overload and
// monitor sweeps and the fuzzer each map their cases to a Scenario and
// the Run to their rows. Pool 0 is the victim: "@wal" in Schedule
// resolves to the OSD holding the first object of its WAL probe's
// file, its probes time Run.Repair and Run.Recovery, and its client
// fault counters are Run.Faults.
type Scenario struct {
	Scale       Scale
	Cores       int
	Params      *model.Params        // cost model (nil: Scale.Params())
	Overload    *core.OverloadPolicy // testbed-wide protection (nil: none)
	Replication int                  // 0 keeps the cluster default
	// Private attaches a fresh unsampled recorder in place of the
	// package Observer hook, so the run stays out of the harness
	// exports and its artifacts cannot depend on harness flags.
	Private bool
	// Monitor is attached before any pool exists. With ArmSLOs its SLO
	// counting is confined to the measurement window, so preparation
	// traffic never reaches the ledger.
	Monitor *telemetry.Monitor
	ArmSLOs bool
	Capture string // non-empty: record the op stream as a trace with this label
	// Spans attaches a plain recorder before any pool when the Observer
	// hook did not attach one, so a runner that captures or analyses
	// the run itself has every mount traced (Monitor and Capture imply
	// it).
	Spans bool

	Pools    []PoolSpec
	Schedule string // faults.Parse syntax, relative to the measurement window
	// Probes start in order, then the pools' tenant workloads. Every
	// probe reopens its handles after a failed op when the schedule
	// crashes a client.
	Probes []Probe
}

// PoolSpec is pool i: cores 2i and 2i+1, the scale's pool memory, and
// one container of the same name over /containers/<Name>, plus with
// Clone a <Name>-clone container sharing its client or kernel mount.
// NoContainer leaves the pool empty: a neighbour whose workload runs
// on the host's local filesystem. Scaleup replaces all of this with a
// whole-host pool of clones. Before the clock starts, a proc named Prep
// writes Files in order on a fresh thread of the container, then
// prepares Tenant's dataset; the pools prepare concurrently.
type PoolSpec struct {
	Name        string
	Config      core.Configuration
	CacheBytes  int64 // user-level client cache (0: default)
	Clone       bool
	NoContainer bool
	Scaleup     *Scaleup
	Prep        string
	Files       []File
	Tenant      *TenantLoad
}

// Scaleup is the paper's scaleup pool (Fig 7c/d, 8, 11): every core of
// the host and Mem times the scale's pool memory, holding Clones
// containers <Name>000, <Name>001, ... Each has its own upper directory
// /containers/<Name>NNN over the shared lower directory Lower, and all
// share the first clone's client or kernel mount. The Image files are
// provisioned on the cluster (Chunk unused) before the pool exists.
type Scaleup struct {
	Clones int
	Mem    int64
	Lower  string
	Image  []File
}

// File is Size bytes appended in whole Chunk-byte chunks (workloads.PrepFile).
type File struct {
	Path        string
	Size, Chunk int64
}

// TenantLoad is a pool's co-located workload: "fileserver",
// "webserver", "kvput" (cluster-backed) or "randio" (the local ext4
// array, the paper's noisy neighbour). Dir is its dataset directory
// (randio: file path).
type TenantLoad struct {
	Workload, Dir string
	Threads       int
	Seed          int64
}

// ProbeKind selects a probe's workload: workloads.WALWriter (append
// Chunk bytes and fsync), workloads.SeqReader (Chunk-byte reads through
// Size bytes, wrapping) or workloads.OpenLoop (Poisson arrivals at Rate,
// each a Chunk-byte read at a random offset below Size).
type ProbeKind int

const (
	WALProbe ProbeKind = iota
	SeqProbe
	OpenProbe
)

// Probe is one probe on pool Pool's container. From and To, fractions
// of the measurement window, give it a window of its own, started by a
// "<Name>-starter" proc; both zero means the whole window. Name is
// also the SeqReader's proc name.
type Probe struct {
	Kind        ProbeKind
	Name        string
	Pool        int
	Path        string
	Size, Chunk int64
	Rate        float64
	Seed        int64
	From, To    float64
}

// Run is the harvest of one scenario run.
type Run struct {
	TB    *core.Testbed
	Conts []*core.Container // each pool's container
	Clock workloads.Clock
	Plan  faults.Plan
	// Stats holds each probe's measurement-window stats in spec order;
	// OpenLoop is the open-loop probe (arrival accounting for the run).
	Stats    []*workloads.Stats
	OpenLoop *workloads.OpenLoop
	// Acked is the WAL probe's fsync-acknowledged size, Stored what the
	// cluster holds of its file once the engine drained, and Remount
	// the size a fresh handle saw after every fault window disarmed
	// (only when the schedule crashes a client).
	Acked, Stored, Remount int64
	// Repair is the time from the first fault window's start to the
	// next op a victim probe completed; Recovery to the first that
	// succeeded through the fault path (the victim pool's retries or
	// failovers rose while it ran). Zero when it never happened.
	Repair, Recovery time.Duration
	Faults           metrics.FaultCounters
	CrashLog         []core.CrashEvent
	Admission        []TenantAdmission // admission-controlled pools, in pool order
	Trace            *trace.Trace      // nil without Capture
	Drain            []Violation       // what the drain checks found
}

// runner is any workload started against a group and a clock.
type runner interface {
	Run(g *workloads.Group, clock workloads.Clock)
}

// Testbed builds the scenario's host, recorder, monitor and pools, and
// returns each pool's container (a scaleup pool's first clone, nil for
// an empty pool). It is the only place the package builds a testbed,
// so the Observer hook sees every one but a Private run's.
func (s Scenario) Testbed() (*core.Testbed, []*core.Container) {
	params := s.Params
	if params == nil {
		params = s.Scale.Params()
	}
	tb := core.NewTestbed(core.TestbedConfig{Cores: s.Cores, Params: params, Overload: s.Overload})
	if s.Replication > 0 {
		tb.Cluster.SetReplication(s.Replication)
	}
	if !s.Private && Observer != nil {
		Observer(tb)
	}
	if tb.Obs == nil && (s.Private || s.Spans || s.Monitor != nil || s.Capture != "") {
		// A plain unsampled recorder, before any pool so every mount is
		// traced.
		tb.AttachObserver(obs.New(obs.Config{Clock: tb.Eng.Now}))
	}
	if s.Monitor != nil {
		if s.ArmSLOs {
			s.Monitor.ArmSLOs(time.Duration(1<<62), 0) // muted until the clock starts
		}
		tb.AttachMonitor(s.Monitor)
	}
	conts := make([]*core.Container, len(s.Pools))
	for i, ps := range s.Pools {
		if up := ps.Scaleup; up != nil {
			conts[i] = up.build(tb, ps, s.Scale)
			continue
		}
		pool := tb.NewPool(ps.Name, cpu.MaskRange(2*i, 2*i+2), s.Scale.PoolMem())
		if ps.NoContainer {
			continue
		}
		upper := "/containers/" + ps.Name
		if err := tb.Cluster.ProvisionDir(upper); err != nil {
			panic(err)
		}
		spec := core.MountSpec{Config: ps.Config, UpperDir: upper, CacheBytes: ps.CacheBytes}
		conts[i] = mustContainer(pool, ps.Name, spec)
		if ps.Clone {
			spec.SharedClient, spec.SharedKernelMount = conts[i].Mount.Client, conts[i].Mount.KernelMount
			mustContainer(pool, ps.Name+"-clone", spec)
		}
	}
	return tb, conts
}

// build provisions the image, then creates the whole-host pool and its
// clones in order, and returns the first clone (nil with none).
func (up *Scaleup) build(tb *core.Testbed, ps PoolSpec, scale Scale) *core.Container {
	for _, f := range up.Image {
		if err := tb.Cluster.Provision(f.Path, f.Size); err != nil {
			panic(err)
		}
	}
	pool := tb.NewPool(ps.Name, tb.CPU.AllMask(), scale.PoolMem()*up.Mem)
	var first *core.Container
	for i := 0; i < up.Clones; i++ {
		name := fmt.Sprintf("%s%03d", ps.Name, i)
		if err := tb.Cluster.ProvisionDir("/containers/" + name); err != nil {
			panic(err)
		}
		spec := core.MountSpec{Config: ps.Config, UpperDir: "/containers/" + name, LowerDir: up.Lower}
		if i == 0 {
			first = mustContainer(pool, name, spec)
			continue
		}
		spec.SharedClient, spec.SharedKernelMount = first.Mount.Client, first.Mount.KernelMount
		mustContainer(pool, name, spec)
	}
	return first
}

func mustContainer(pool *core.Pool, name string, spec core.MountSpec) *core.Container {
	c, err := pool.NewContainer(name, spec)
	if err != nil {
		panic(err)
	}
	return c
}

// RunScenario builds the testbed, prepares the pools, starts the clock,
// installs the schedule, runs the probes and tenants, waits out every
// fault window, and harvests the run once Drive has drained and checked
// it.
func RunScenario(s Scenario) *Run {
	tb, conts := s.Testbed()
	var capture *trace.Recorder
	if s.Capture != "" {
		capture = trace.NewRecorder(s.Capture, 0)
		capture.Attach(tb.Obs)
	}
	run := &Run{TB: tb, Conts: conts}
	var writer *workloads.WALWriter
	var walIno uint64

	run.Drain = Drive(tb, func(p *sim.Proc) {
		tenants := make([]runner, len(s.Pools))
		closers := make([]func(p *sim.Proc), len(s.Pools))
		g := workloads.NewGroup(tb.Eng)
		for i, ps := range s.Pools {
			if ps.Files == nil && ps.Tenant == nil {
				continue
			}
			i, ps := i, ps
			g.Go(ps.Prep, func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: conts[i].NewThread()}
				for _, f := range ps.Files {
					workloads.PrepFile(ctx, conts[i].Mount.Default, f.Path, f.Size, f.Chunk)
				}
				if ps.Tenant != nil {
					tenants[i], closers[i] = prepareTenant(ctx, tb, conts[i], *ps.Tenant, s.Scale)
				}
			})
		}
		g.Wait(p)

		clock := clockFor(tb.Eng, s.Scale)
		run.Clock = clock
		sched := s.Schedule
		for _, pr := range s.Probes {
			if pr.Kind == WALProbe {
				node, err := tb.Cluster.Tree().Lookup("/containers/" + s.Pools[pr.Pool].Name + pr.Path)
				if err != nil {
					panic(err)
				}
				walIno = node.Ino
				sched = strings.ReplaceAll(sched, "@wal", strconv.Itoa(tb.Cluster.PlacementOf(walIno, 0)))
			}
		}
		plan, err := faults.Parse(sched)
		if err == nil {
			_, err = faults.InstallWithTargets(tb.Eng, tb.Cluster, tb, plan, clock.From)
		}
		if err != nil {
			panic(err)
		}
		run.Plan = plan
		if s.ArmSLOs {
			s.Monitor.ArmSLOs(clock.From, clock.Stop)
		}

		hook := run.victimHook(tb.Pools()[0])
		probes := workloads.NewGroup(tb.Eng)
		for _, pr := range s.Probes {
			cont, stats, onOp := conts[pr.Pool], workloads.NewStats(), hook
			run.Stats = append(run.Stats, stats)
			if pr.Pool != 0 {
				onOp = nil
			}
			var w runner
			switch pr.Kind {
			case WALProbe:
				writer = &workloads.WALWriter{FS: cont.Mount.Default, Path: pr.Path, OpSize: pr.Chunk,
					NewThread: cont.NewThread, Reopen: plan.ClientCrash(), OnOp: onOp, Stats: stats}
				w = writer
			case SeqProbe:
				w = &workloads.SeqReader{Name: pr.Name, FS: cont.Mount.Default, Path: pr.Path, Size: pr.Size,
					Chunk: pr.Chunk, NewThread: cont.NewThread, Reopen: plan.ClientCrash(), OnOp: onOp, Stats: stats}
			case OpenProbe:
				run.OpenLoop = &workloads.OpenLoop{FS: cont.Mount.Default, Path: pr.Path, FileSize: pr.Size,
					OpSize: pr.Chunk, Rate: pr.Rate, Seed: pr.Seed, NewThread: cont.NewThread, Stats: stats}
				w = run.OpenLoop
			}
			if pr.From == 0 && pr.To == 0 {
				w.Run(probes, clock)
				continue
			}
			own := workloads.Clock{Eng: tb.Eng, From: clock.From + s.Scale.frac(pr.From), Stop: clock.From + s.Scale.frac(pr.To)}
			probes.Go(pr.Name+"-starter", func(pp *sim.Proc) {
				if wait := own.From - pp.Now(); wait > 0 {
					pp.Sleep(wait)
				}
				w.Run(probes, own)
			})
		}
		for _, w := range tenants {
			if w != nil {
				w.Run(probes, clock)
			}
		}
		probes.Wait(p)
		// An open kvstore re-arms its compaction timer forever; close it
		// so the engine can drain.
		for _, closeDB := range closers {
			if closeDB != nil {
				closeDB(p)
			}
		}

		// Wait until every fault window has disarmed, so a crashed OSD
		// still down at harvest cannot read as data loss and a crashed
		// client has restarted; only a window that outlasts the probes
		// makes this sleep. Then look at the WAL through a fresh handle:
		// the durable frontier an application sees on reopen.
		var lastEnd time.Duration
		for _, w := range plan.Windows {
			if w.End > lastEnd {
				lastEnd = w.End
			}
		}
		if settle := clock.From + lastEnd + time.Millisecond; tb.Eng.Now() < settle {
			p.Sleep(settle - tb.Eng.Now())
		}
		if writer != nil && plan.ClientCrash() {
			ctx := vfsapi.Ctx{P: p, T: writer.NewThread()}
			if h, err := writer.FS.Open(ctx, writer.Path, vfsapi.RDONLY); err == nil {
				run.Remount = h.Size()
				h.Close(ctx)
			}
		}
	})

	if writer != nil {
		run.Acked, run.Stored = writer.Acked, tb.Cluster.StoredSize(walIno)
	}
	run.Faults = poolFaultStats(tb.Pools()[0])
	run.CrashLog = tb.CrashLog()
	run.Admission = admissions(tb)
	if capture != nil {
		run.Trace = capture.Snapshot()
	}
	tb.Obs.Finalize()
	return run
}

// frac returns fraction f of the measurement window.
func (s Scale) frac(f float64) time.Duration {
	return time.Duration(float64(s.Duration) * f)
}

// victimHook is the victim probes' per-op hook timing Run.Repair and
// Run.Recovery; nil when nothing is scheduled.
func (run *Run) victimHook(victim *core.Pool) workloads.OpHook {
	if run.Plan.Empty() {
		return nil
	}
	faultAbs := run.Clock.From + run.Plan.Windows[0].Start
	return func() func(time.Duration, error) {
		if run.Repair != 0 && run.Recovery != 0 {
			return nil
		}
		before := poolFaultStats(victim)
		return func(now time.Duration, err error) {
			if err != nil || now < faultAbs {
				return
			}
			if run.Repair == 0 {
				run.Repair = now - faultAbs
			}
			if after := poolFaultStats(victim); run.Recovery == 0 && (after.Retries > before.Retries || after.Failovers > before.Failovers) {
				run.Recovery = now - faultAbs
			}
		}
	}
}

// poolFaultStats sums fault counters over every distinct client and
// kernel Ceph store mounted in the pool, so a scaleup clone's shared
// mount counts once. It reads the mounts directly, independent of
// core's registry harvest, which the fuzzer's fault-accounting check
// compares it with.
func poolFaultStats(pool *core.Pool) metrics.FaultCounters {
	var total metrics.FaultCounters
	seen := map[interface{}]bool{}
	for _, cont := range pool.Containers() {
		if c := cont.Mount.Client; c != nil && !seen[c] {
			seen[c] = true
			total.Add(c.FaultStats())
		}
		if m := cont.Mount.KernelMount; m != nil && !seen[m] {
			seen[m] = true
			if cs, ok := m.Store().(*kern.CephStore); ok {
				total.Add(cs.FaultStats())
			}
		}
	}
	return total
}

// prepareTenant builds one tenant workload and prepares its dataset;
// a kvput tenant also returns the close of its store.
func prepareTenant(ctx vfsapi.Ctx, tb *core.Testbed, cont *core.Container, tl TenantLoad, scale Scale) (runner, func(*sim.Proc)) {
	fs := cont.Mount.Default
	var w interface {
		runner
		Defaults(factor float64)
		Prepare(ctx vfsapi.Ctx) error
	}
	switch tl.Workload {
	case "fileserver":
		w = &workloads.Fileserver{FS: fs, Dir: tl.Dir, NewThread: cont.NewThread, Seed: tl.Seed, Threads: tl.Threads,
			Files: 12, MeanFileSize: 256 << 10}
	case "webserver":
		w = &workloads.Webserver{FS: fs, Dir: tl.Dir, NewThread: cont.NewThread, Seed: tl.Seed, Threads: tl.Threads, Files: 100}
	case "randio":
		// The paper's noisy neighbour runs on the local ext4 array
		// through the shared kernel.
		w = &workloads.RandomIO{FS: localFS(tb), Path: tl.Dir, NewThread: cont.NewThread,
			Seed: tl.Seed, Threads: tl.Threads, FileSize: 8 << 20}
	case "kvput":
		db, err := kvstore.Open(ctx, kvstore.Config{FS: fs, Dir: tl.Dir, MemtableBytes: 4 << 20,
			Eng: tb.Eng, Params: tb.Params, NewThread: cont.NewThread})
		if err != nil {
			panic(err)
		}
		kv := &workloads.KVPut{DB: db, TotalBytes: 4 << 20, ValueSize: 64 << 10, Threads: tl.Threads, Seed: tl.Seed,
			NewThread: cont.NewThread, Stats: workloads.NewStats()}
		return kv, func(p *sim.Proc) { db.Close(vfsapi.Ctx{P: p, T: cont.NewThread()}) }
	default:
		panic("experiments: unknown tenant workload " + tl.Workload)
	}
	w.Defaults(scale.Factor)
	if err := w.Prepare(ctx); err != nil {
		panic(err)
	}
	return w, nil
}

// CrashEvidence is what a run with a scheduled client crash shows:
// crash events taken and recovered, pools interrupted summed over
// events, and the WAL's fsync-acknowledged and remounted sizes.
type CrashEvidence struct {
	Events, Recovered, Affected int
	Acked, Remount              int64
}

// Crash summarizes the run's crash log and WAL frontier.
func (run *Run) Crash() CrashEvidence {
	e := CrashEvidence{Events: len(run.CrashLog), Acked: run.Acked, Remount: run.Remount}
	for _, ev := range run.CrashLog {
		if ev.Recovered {
			e.Recovered++
		}
		e.Affected += len(ev.Affected)
	}
	return e
}

// CrashViolations checks a scheduled client crash: it happened, every
// crash recovered and interrupted at least one pool, and the remounted
// WAL covers every byte fsync acknowledged. Un-synced appends may
// vanish (that is the crash model), acknowledged ones may not.
func CrashViolations(e CrashEvidence) []string {
	if e.Events == 0 {
		return []string{"crash scheduled but no crash event recorded"}
	}
	var v []string
	if e.Recovered != e.Events {
		v = append(v, fmt.Sprintf("recovery never completed: %d crash(es) but only %d recovered", e.Events, e.Recovered))
	}
	if e.Affected == 0 {
		v = append(v, "crash event with empty blast radius")
	}
	if e.Remount < e.Acked {
		v = append(v, fmt.Sprintf("durability violated: remounted WAL is %d bytes but fsync acknowledged %d (lost %d acked bytes)",
			e.Remount, e.Acked, e.Acked-e.Remount))
	}
	return v
}
