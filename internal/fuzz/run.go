package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Result is everything the invariant checkers need from one finished
// testbed run of a scenario.
type Result struct {
	// Victim probe measurements (WAL fsync writer, cold backend reader).
	WriteOps  uint64
	ReadOps   uint64
	Errors    uint64
	WriteMean time.Duration
	ReadMean  time.Duration

	// AckedBytes is the fsync-acknowledged WAL size; StoredBytes is
	// what the cluster can reconstruct after the schedule completed.
	AckedBytes  int64
	StoredBytes int64

	// Open-loop aggressor accounting (zero unless the scenario has an
	// OfferedLoad).
	OLOffered   uint64
	OLCompleted uint64
	OLShed      uint64
	OLFailed    uint64
	// Admission snapshots every pool's admission counters at drain, in
	// pool creation order (empty unless the scenario has an AdmitQueue).
	Admission []TenantAdmission

	// Crash dimension evidence (zero values unless the scenario
	// schedules a client crash): events observed, events whose recovery
	// completed, pools interrupted summed over events, and the /wal size
	// visible through a fresh post-recovery handle (the remounted fsync
	// frontier the crash-consistency checker compares with AckedBytes).
	CrashEvents    int
	CrashRecovered int
	CrashAffected  int
	RemountSize    int64

	// Faults sums the victim pool's client fault counters, counting
	// each shared client or kernel mount exactly once.
	Faults metrics.FaultCounters
	// RegistryFaults is the victim tenant's fault aggregate as
	// harvested into the observability registry (must match Faults).
	RegistryFaults metrics.FaultCounters

	// Trace is the run's captured VFS op stream (nil unless the scenario
	// has the TraceReplay dimension); TraceOps and TraceHash summarize
	// it for the determinism digest.
	Trace     *trace.Trace
	TraceOps  int
	TraceHash string

	// Telemetry dimension evidence (empty unless the scenario attaches
	// the live monitor): the monitor's per-(tenant, op) running sums
	// folded from its closed windows, the registry's facade-op counters
	// they must equal, closed-window and alert-ledger sizes, and a
	// SHA-256 over the windows/alerts/totals CSV exports (the artifact-
	// determinism fingerprint of the telemetry layer).
	TelTotals   []TelOpCount
	TelRegistry []TelOpCount
	TelWindows  int
	TelAlerts   int
	TelHash     string

	// Leaked lists spans opened but never ended at engine drain.
	Leaked []string
	// Unattributed counts waits observed with no bound span.
	Unattributed uint64
	// Report is the blame analysis of the run.
	Report blame.Report
	// ArtifactHash is a SHA-256 over the run's exported trace, metrics
	// and blame artifacts — the replay-determinism fingerprint.
	ArtifactHash string
	// Summary is a deterministic one-line digest for sweep output.
	Summary string
}

// TenantAdmission is one pool's admission snapshot for the bounded-
// queue and admission-accounting checkers.
type TenantAdmission = experiments.TenantAdmission

// TelOpCount is one (tenant, op) aggregate in the telemetry-consistency
// comparison: the same shape is filled from the monitor's windowed
// totals and from the obs metrics registry, and the two must match
// exactly. Mean stands in for the latency sum (the registry histogram
// exposes only the mean, which is the exact sum over the exact count on
// both sides).
type TelOpCount struct {
	Tenant string
	Op     string
	Ops    uint64
	Errors uint64
	Bytes  int64
	Mean   time.Duration
}

// Evaluate runs a scenario through the full pipeline the checkers
// consume: the run itself, an identical replay (determinism), and —
// when co-tenants exist — a solo run with the tenants removed (the
// isolation baseline).
func Evaluate(sc Scenario) *Outcome {
	o := &Outcome{Scenario: sc}
	o.Full = RunScenario(sc, false)
	o.Replay = RunScenario(sc, false)
	if len(sc.Tenants) > 0 {
		o.Solo = RunScenario(sc, true)
	}
	if sc.TraceReplay && o.Full.Trace != nil {
		o.TraceRuns = []TraceReplayRun{
			replayTrace(sc, o.Full.Trace),
			replayTrace(sc, o.Full.Trace),
		}
	}
	return o
}

// scale converts the scenario sizing into the experiments form.
func (sc Scenario) scale() experiments.Scale {
	return experiments.Scale{Factor: sc.Factor, Duration: sc.Duration, Warmup: sc.Warmup}
}

// spec compiles the scenario into the experiments runner's form: the
// victim pool (plus its scaleup clone when SharedMount is set) and,
// with tenants set, one pool per co-tenant in tenant order. Without
// tenants the host stays identically sized: the isolation baseline.
// The victim runs the WAL fsync writer and the cold backend reader,
// plus the open-loop aggressor when OfferedLoad is set; the run keeps
// its own recorder, outside any harness export.
func (sc Scenario) spec(tenants bool) experiments.Scenario {
	scale := sc.scale()
	var cacheBytes int64
	if sc.CacheFrac > 0 {
		cacheBytes = scale.PoolMem() / int64(sc.CacheFrac)
	}
	// The cold file overflows every cache tier so victim reads keep
	// hitting the backend through any fault window.
	coldSize := scale.PoolMem() + scale.PoolMem()/2
	const walOp = 64 << 10
	const readChunk = 256 << 10
	s := experiments.Scenario{
		Scale: scale, Cores: 2 * (1 + len(sc.Tenants)), Replication: sc.Replication,
		Private: true,
		Pools: []experiments.PoolSpec{{
			Name: "victim", Config: sc.Config, CacheBytes: cacheBytes, Clone: sc.SharedMount, Prep: "prep-victim",
			Files: []experiments.File{{Path: "/wal", Size: 0, Chunk: walOp}, {Path: "/cold", Size: coldSize, Chunk: 1 << 20}},
		}},
		Schedule: sc.Schedule + ";" + sc.Crash,
		Probes: []experiments.Probe{
			{Kind: experiments.WALProbe, Pool: 0, Path: "/wal", Chunk: walOp},
			{Kind: experiments.SeqProbe, Name: "cold-reader", Pool: 0, Path: "/cold", Size: coldSize, Chunk: readChunk},
		},
	}
	if sc.AdmitQueue > 0 {
		s.Overload = &core.OverloadPolicy{QueueCap: sc.AdmitQueue, RetrySeed: uint64(sc.Seed)}
	}
	if sc.TraceReplay {
		s.Capture = sc.Config.String()
	}
	if sc.OfferedLoad > 0 {
		s.Probes = append(s.Probes, experiments.Probe{
			Kind: experiments.OpenProbe, Pool: 0, Path: "/cold", Size: coldSize, Chunk: readChunk,
			Rate: float64(sc.OfferedLoad), Seed: workloads.StreamSeed(sc.Seed, "openloop", 0),
		})
	}
	if !tenants {
		return s
	}
	for i, t := range sc.Tenants {
		dir := map[string]string{"fileserver": "/flsdata", "webserver": "/webdata", "kvput": "/kv", "randio": fmt.Sprintf("/rnd%d", i)}[t.Workload]
		s.Pools = append(s.Pools, experiments.PoolSpec{
			Name: fmt.Sprintf("t%d", i), Config: sc.Config, CacheBytes: cacheBytes, Prep: fmt.Sprintf("prep-t%d", i),
			Tenant: &experiments.TenantLoad{Workload: t.Workload, Dir: dir, Threads: t.Threads, Seed: workloads.StreamSeed(sc.Seed, t.Workload, i)},
		})
	}
	return s
}

// RunScenario executes one scenario on a fresh testbed and collects
// the checker inputs. With solo set, the co-tenant workloads (and
// their pools) are omitted while the host stays identically sized —
// the isolation baseline the victim is compared against.
func RunScenario(sc Scenario, solo bool) *Result {
	var mon *telemetry.Monitor
	if sc.Telemetry {
		// Fast windows at 1/8 of the measurement window give every run a
		// handful of closed windows to fold; the error-rate SLO gives the
		// alert ledger coverage whenever a fault schedule pushes errors.
		// SampleInterval stays zero so the monitor adds no engine events
		// and the schedule is event-for-event the unmonitored one.
		mon = telemetry.New(telemetry.Config{
			FastWindow: sc.Duration / 8,
			SlowWindow: sc.Duration / 2,
			SLOs: []telemetry.SLO{
				{Name: "err-burn", Budget: 0.02, FireBurn: 2, ClearBurn: 1, MinOps: 1},
			},
		})
	}
	s := sc.spec(!solo)
	s.Monitor = mon
	run := experiments.RunScenario(s)

	writer, reader := run.Stats[0], run.Stats[1]
	crash := run.Crash()
	res := &Result{
		WriteOps: writer.Ops.Ops, ReadOps: reader.Ops.Ops,
		Errors:    writer.Errors + reader.Errors,
		WriteMean: writer.Latency.Mean(), ReadMean: reader.Latency.Mean(),
		AckedBytes: run.Acked, StoredBytes: run.Stored,
		Admission:   run.Admission,
		CrashEvents: crash.Events, CrashRecovered: crash.Recovered, CrashAffected: crash.Affected,
		RemountSize: run.Remount,
		Faults:      run.Faults,
		Trace:       run.Trace,
	}
	if ol := run.OpenLoop; ol != nil {
		res.OLOffered, res.OLCompleted, res.OLShed, res.OLFailed = ol.Offered, ol.Completed, ol.Shed, ol.Failed
	}
	if res.Trace != nil {
		res.TraceOps = len(res.Trace.Ops)
		res.TraceHash = res.Trace.ScheduleHash()
	}
	rec := run.TB.Obs
	if mon != nil {
		res.TelTotals = monitorOpCounts(mon)
		res.TelRegistry = registryOpCounts(rec.Registry())
		res.TelWindows = len(mon.Windows())
		res.TelAlerts = len(mon.Alerts())
		res.TelHash = hashTelemetry(mon)
	}
	res.RegistryFaults = rec.Registry().Tenant("victim").Faults()
	res.Leaked = rec.LeakedSpans()
	res.Unattributed = rec.UnattributedWaits()
	res.Report = blame.Analyze("fuzz", rec)
	res.ArtifactHash = hashArtifacts(rec, res.Report)
	res.Summary = res.summaryLine()
	return res
}

// TraceReplayRun is one clean-testbed replay of a scenario's captured
// op trace, summarized for the trace-replay-determinism checker.
type TraceReplayRun struct {
	Hash       string // schedule hash of the replayed trace
	Ops        int
	Errors     int
	Skipped    int
	SequenceOK bool // replay preserved the recorded per-stream op sequence
}

// replayTrace reissues a captured op trace against a freshly built
// testbed shaped like the scenario's (same configuration, pools, cache
// sizing and admission policy) but with no workloads and no fault
// schedule. The capture includes preparation ops, so the replay is
// self-contained: recorded creates rebuild the fileset the later ops
// touch.
func replayTrace(sc Scenario, tr *trace.Trace) TraceReplayRun {
	// The replay binds recorded ops to tenants only, so the scaleup
	// clone, which issues none, is left out.
	s := sc.spec(true)
	s.Pools[0].Clone = false
	tb, conts := s.Testbed()
	bindings := map[string]trace.Binding{}
	for i, cont := range conts {
		bindings[s.Pools[i].Name] = trace.Binding{FS: cont.Mount.Default, NewThread: cont.NewThread}
	}

	var replayed *trace.Trace
	var stats *trace.ReplayStats
	tb.Eng.Go("trace-replay-master", func(p *sim.Proc) {
		defer tb.Stop()
		replayed, stats = trace.Replay(p, tb.Eng, tr, "replay", func(tenant string) (trace.Binding, bool) {
			b, ok := bindings[tenant]
			return b, ok
		})
	})
	tb.Eng.Run()

	return TraceReplayRun{
		Hash:       replayed.ScheduleHash(),
		Ops:        stats.Ops,
		Errors:     stats.Errors,
		Skipped:    stats.Skipped,
		SequenceOK: replayed.OpSequence() == tr.OpSequence(),
	}
}

// monitorOpCounts flattens the monitor's running totals into the
// comparison shape. Mean is the exact LatSum over the exact op count,
// matching the registry histogram's Mean on the other side.
func monitorOpCounts(mon *telemetry.Monitor) []TelOpCount {
	var out []TelOpCount
	for _, t := range mon.Totals() {
		c := TelOpCount{Tenant: t.Tenant, Op: t.Op, Ops: t.Ops, Errors: t.Errors, Bytes: t.Bytes}
		if t.Ops > 0 {
			c.Mean = t.LatSum / time.Duration(t.Ops)
		}
		out = append(out, c)
	}
	return out
}

// registryOpCounts flattens the obs registry's per-(tenant, op)
// counters into the comparison shape, sorted by tenant then op. The
// "writeback" op is excluded: background writeback spans end in the
// registry but never cross the facade, so the monitor legitimately
// never sees them.
func registryOpCounts(reg *obs.Registry) []TelOpCount {
	var out []TelOpCount
	tenants := make([]string, 0, len(reg.Tenants()))
	for name := range reg.Tenants() {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		tm := reg.Tenants()[name]
		ops := make([]string, 0, len(tm.Ops()))
		for op := range tm.Ops() {
			if op == "writeback" {
				continue
			}
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			st := tm.Ops()[op]
			out = append(out, TelOpCount{
				Tenant: name, Op: op,
				Ops: st.Ops, Errors: st.Errors, Bytes: st.Bytes,
				Mean: st.Hist.Mean(),
			})
		}
	}
	return out
}

// hashTelemetry fingerprints the monitor's exported artifacts — the
// windows CSV, the alert ledger and the running totals — which must be
// byte-identical across replays of one scenario.
func hashTelemetry(mon *telemetry.Monitor) string {
	h := sha256.New()
	if err := mon.WriteWindowsCSV(h); err != nil {
		panic(err)
	}
	if err := mon.WriteAlertsCSV(h); err != nil {
		panic(err)
	}
	if err := mon.WriteTotalsCSV(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashArtifacts fingerprints the run's exported artifacts: the
// Perfetto trace, the metrics JSON and the blame JSON, all of which
// must be byte-identical across replays of one scenario.
func hashArtifacts(rec *obs.Recorder, rep blame.Report) string {
	h := sha256.New()
	runs := []obs.Run{{Label: "fuzz", Rec: rec}}
	if err := obs.WriteTrace(h, runs); err != nil {
		panic(err)
	}
	if err := obs.WriteMetrics(h, runs); err != nil {
		panic(err)
	}
	if err := blame.WriteJSON(h, []blame.Report{rep}); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summaryLine renders the deterministic per-run digest. Overload
// fields are appended only when the dimension is active, keeping
// historical scenario digests unchanged.
func (r *Result) summaryLine() string {
	s := fmt.Sprintf("w=%d/%v r=%d/%v err=%d acked=%d stored=%d retries=%d failovers=%d misses=%d reqs=%d leaks=%d hash=%s",
		r.WriteOps, r.WriteMean, r.ReadOps, r.ReadMean, r.Errors,
		r.AckedBytes, r.StoredBytes,
		r.Faults.Retries, r.Faults.Failovers, r.Faults.DeadlineMisses,
		r.Report.Requests, len(r.Leaked), r.ArtifactHash[:12])
	if r.OLOffered > 0 || len(r.Admission) > 0 {
		var off, adm, shed uint64
		maxq := 0
		for _, a := range r.Admission {
			off += a.Stats.Offered
			adm += a.Stats.Admitted
			shed += a.Stats.Shed
			if a.Stats.MaxQueued > maxq {
				maxq = a.Stats.MaxQueued
			}
		}
		s += fmt.Sprintf(" ol=%d/%d/%d/%d adm=%d/%d/%d maxq=%d",
			r.OLOffered, r.OLCompleted, r.OLShed, r.OLFailed, off, adm, shed, maxq)
	}
	if r.CrashEvents > 0 {
		s += fmt.Sprintf(" crash=%d/%d aff=%d remount=%d",
			r.CrashEvents, r.CrashRecovered, r.CrashAffected, r.RemountSize)
	}
	if r.TraceOps > 0 {
		s += fmt.Sprintf(" trace=%d/%s", r.TraceOps, r.TraceHash[:12])
	}
	if r.TelHash != "" {
		s += fmt.Sprintf(" tel=%d/%d/%s", r.TelWindows, r.TelAlerts, r.TelHash[:12])
	}
	return s
}
