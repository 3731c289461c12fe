package fuzz

import (
	"strings"
	"testing"
	"time"

	"repro/internal/blame"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// cleanOutcome builds a synthetic outcome every checker accepts: the
// mutation tests below each corrupt one aspect of it and assert that
// exactly the targeted checker — and no other — fires. A checker that
// stays silent on its own corruption is a dead oracle.
func cleanOutcome() *Outcome {
	mk := func() *Result {
		req := blame.Request{
			Span: 1, Tenant: "victim", Op: "fsync", Dur: 3 * time.Millisecond,
			Buckets: []blame.Bucket{
				{Name: blame.BucketOSD, Dur: 2 * time.Millisecond},
				{Name: blame.BucketOther, Dur: time.Millisecond},
			},
		}
		return &Result{
			WriteOps: 100, ReadOps: 100,
			WriteMean: time.Millisecond, ReadMean: time.Millisecond,
			AckedBytes: 1 << 20, StoredBytes: 1 << 20,
			Admission: []TenantAdmission{{
				Tenant: "victim", QueueCap: 8,
				Stats: vfsapi.AdmissionStats{Offered: 120, Admitted: 110, Shed: 10, MaxQueued: 8},
			}},
			Report:       blame.Report{Requests: 1, PerRequest: []blame.Request{req}},
			ArtifactHash: "feedfacefeedfacefeedface",
			Summary:      "w=100 r=100",
		}
	}
	return &Outcome{
		Scenario: Scenario{
			Duration: 60 * time.Millisecond,
			Tenants:  []Tenant{{Workload: "randio", Threads: 1}},
		},
		Full:   mk(),
		Replay: mk(),
		Solo:   mk(),
	}
}

// redrain reruns the drain checks on each run's admission ledgers and
// leaked spans, as experiments.Drive does at the end of a real run, so
// a corrupted ledger or span reaches the checkers that report them.
func redrain(o *Outcome) {
	for _, r := range []*Result{o.Full, o.Replay, o.Solo} {
		r.Drain = experiments.DrainEvidence{Admission: r.Admission, Leaked: r.Leaked}.Violations()
	}
}

// only asserts that CheckAll on o reports the named checker and nothing
// else.
func only(t *testing.T, o *Outcome, checker string) {
	t.Helper()
	vs := CheckAll(o)
	if len(vs) == 0 {
		t.Fatalf("corrupted outcome passed every invariant, want %s to fire", checker)
	}
	for _, v := range vs {
		if v.Checker != checker {
			t.Fatalf("unexpected violation %v (want only %s)", v, checker)
		}
	}
}

func TestCleanOutcomePassesAllCheckers(t *testing.T) {
	if vs := CheckAll(cleanOutcome()); len(vs) != 0 {
		t.Fatalf("clean outcome violates: %v", vs)
	}
}

func TestCheckerFiresOnDataLoss(t *testing.T) {
	o := cleanOutcome()
	o.Full.AckedBytes = o.Full.StoredBytes + 4096
	only(t, o, "zero-data-loss")
}

func TestCheckerFiresOnBlameSumMismatch(t *testing.T) {
	o := cleanOutcome()
	o.Replay.Report.PerRequest[0].Dur += time.Microsecond
	only(t, o, "blame-sum")
}

func TestCheckerFiresOnNegativeBucket(t *testing.T) {
	o := cleanOutcome()
	// Keep the sum exact but drive the residual negative — the exact
	// shape of the netsim over-reporting bug.
	reqs := o.Solo.Report.PerRequest
	reqs[0].Buckets[0].Dur += 2 * time.Millisecond
	reqs[0].Buckets[1].Dur -= 2 * time.Millisecond
	only(t, o, "blame-sum")
}

func TestCheckerFiresOnBlameSumOverflowCap(t *testing.T) {
	o := cleanOutcome()
	bad := o.Full.Report.PerRequest[0]
	bad.Dur += time.Microsecond
	for i := 0; i < 6; i++ {
		o.Full.Report.PerRequest = append(o.Full.Report.PerRequest, bad)
	}
	vs := CheckAll(o)
	// 3 detailed breaches plus one "... and N more" line.
	if len(vs) != 4 {
		t.Fatalf("got %d violations, want 3 detailed + 1 overflow: %v", len(vs), vs)
	}
}

func TestCheckerFiresOnSpanLeak(t *testing.T) {
	o := cleanOutcome()
	o.Full.Leaked = []string{"victim/fsync span 9"}
	redrain(o)
	only(t, o, "span-leak")
}

func TestCheckerFiresOnReplayHashDivergence(t *testing.T) {
	o := cleanOutcome()
	o.Replay.ArtifactHash = "deadbeefdeadbeefdeadbeef"
	only(t, o, "replay-determinism")
}

func TestCheckerFiresOnReplaySummaryDivergence(t *testing.T) {
	o := cleanOutcome()
	o.Replay.Summary = "w=99 r=100"
	only(t, o, "replay-determinism")
}

func TestCheckerFiresOnIsolationBreach(t *testing.T) {
	o := cleanOutcome()
	o.Full.WriteMean = IsolationBound(o.Scenario, o.Solo.WriteMean) + time.Millisecond
	only(t, o, "isolation-bound")
}

func TestIsolationSkippedBelowFloor(t *testing.T) {
	o := cleanOutcome()
	o.Full.WriteMean = time.Hour
	o.Full.WriteOps = isolationFloorOps - 1
	if vs := CheckAll(o); len(vs) != 0 {
		t.Fatalf("under-sampled run should skip the isolation bound: %v", vs)
	}
}

func TestCheckerFiresOnFaultsWithoutSchedule(t *testing.T) {
	o := cleanOutcome()
	o.Full.Faults = metrics.FaultCounters{Retries: 3}
	o.Full.RegistryFaults = o.Full.Faults
	only(t, o, "fault-accounting")
}

func TestCheckerFiresOnRegistryMismatch(t *testing.T) {
	o := cleanOutcome()
	o.Scenario.Schedule = "osd-crash:@wal:10ms-20ms"
	o.Full.Faults = metrics.FaultCounters{Retries: 3}
	// The harvest double-count bug: registry sees every counter twice.
	o.Full.RegistryFaults = metrics.FaultCounters{Retries: 6}
	only(t, o, "fault-accounting")
}

func TestCheckerFiresOnQueueOverrun(t *testing.T) {
	o := cleanOutcome()
	o.Full.Admission[0].Stats.MaxQueued = o.Full.Admission[0].QueueCap + 1
	redrain(o)
	only(t, o, "bounded-queue")
}

func TestCheckerFiresOnAdmissionImbalance(t *testing.T) {
	o := cleanOutcome()
	// One shed operation went missing from the ledger.
	o.Replay.Admission[0].Stats.Shed--
	redrain(o)
	only(t, o, "admission-accounting")
}

func TestCheckerFiresOnResidualInFlight(t *testing.T) {
	o := cleanOutcome()
	// A drained engine with an operation still holding a slot means a
	// Release was lost; the identity breaks too, so both details are
	// admission-accounting.
	o.Solo.Admission[0].Stats.InFlight = 1
	redrain(o)
	only(t, o, "admission-accounting")
}

func TestCheckerFiresOnTimeoutLedger(t *testing.T) {
	o := cleanOutcome()
	// A drained engine still holding a timeout, or one that lost track
	// of how an armed timeout ended.
	o.Solo.Drain = experiments.DrainEvidence{Engine: sim.Stats{TimeoutsArmed: 2, TimeoutsFired: 1}}.Violations()
	o.TraceRuns = []TraceReplayRun{{Drain: experiments.DrainEvidence{Engine: sim.Stats{TimeoutsArmed: 1, TimeoutsPending: 1}}.Violations()}}
	only(t, o, "timeout-ledger")
	if vs := CheckAll(o); len(vs) != 2 || !strings.HasPrefix(vs[1].Detail, "trace replay 0: ") {
		t.Fatalf("want one ledger breach per run, labelled: %v", vs)
	}
}

// crashedOutcome decorates the clean outcome with a scheduled crash and
// the matching evidence: one recorded, recovered event with a non-empty
// blast radius, and a remounted WAL covering every acked byte.
func crashedOutcome() *Outcome {
	o := cleanOutcome()
	o.Scenario.Crash = "danaus-crash:victim:10ms-20ms"
	for _, r := range []*Result{o.Full, o.Replay, o.Solo} {
		r.CrashEvents = 1
		r.CrashRecovered = 1
		r.CrashAffected = 1
		r.RemountSize = r.AckedBytes
	}
	return o
}

func TestCleanCrashOutcomePassesAllCheckers(t *testing.T) {
	if vs := CheckAll(crashedOutcome()); len(vs) != 0 {
		t.Fatalf("clean crash outcome violates: %v", vs)
	}
}

func TestCheckerFiresOnMissingCrashEvent(t *testing.T) {
	o := crashedOutcome()
	o.Full.CrashEvents = 0
	only(t, o, "crash-consistency")
}

func TestCheckerFiresOnUnrecoveredCrash(t *testing.T) {
	o := crashedOutcome()
	o.Replay.CrashRecovered = 0
	only(t, o, "crash-consistency")
}

func TestCheckerFiresOnEmptyBlastRadius(t *testing.T) {
	o := crashedOutcome()
	o.Solo.CrashAffected = 0
	only(t, o, "crash-consistency")
}

func TestCheckerFiresOnAckedBytesLostAcrossCrash(t *testing.T) {
	o := crashedOutcome()
	// The durability-contract bug: the remounted WAL is shorter than
	// what fsync acknowledged before the crash.
	o.Full.RemountSize = o.Full.AckedBytes - 4096
	only(t, o, "crash-consistency")
}

// tracedOutcome decorates the clean outcome with the trace-replay
// dimension and consistent evidence: a non-empty capture with matching
// hashes across the rerun, and two identical clean replays preserving
// the recorded sequence.
func tracedOutcome() *Outcome {
	o := cleanOutcome()
	o.Scenario.TraceReplay = true
	for _, r := range []*Result{o.Full, o.Replay, o.Solo} {
		r.TraceOps = 42
		r.TraceHash = "cafecafecafecafecafecafe"
	}
	rep := TraceReplayRun{Hash: "beefbeefbeefbeefbeefbeef", Ops: 42, SequenceOK: true}
	o.TraceRuns = []TraceReplayRun{rep, rep}
	return o
}

func TestCleanTracedOutcomePassesAllCheckers(t *testing.T) {
	if vs := CheckAll(tracedOutcome()); len(vs) != 0 {
		t.Fatalf("clean traced outcome violates: %v", vs)
	}
}

func TestCheckerFiresOnEmptyTraceCapture(t *testing.T) {
	o := tracedOutcome()
	o.Full.TraceOps = 0
	only(t, o, "trace-replay-determinism")
}

func TestCheckerFiresOnCaptureHashDivergence(t *testing.T) {
	o := tracedOutcome()
	o.Replay.TraceHash = "facefacefacefacefaceface"
	only(t, o, "trace-replay-determinism")
}

func TestCheckerFiresOnReplayScheduleDivergence(t *testing.T) {
	o := tracedOutcome()
	o.TraceRuns[1].Hash = "deadbeefdeadbeefdeadbeef"
	only(t, o, "trace-replay-determinism")
}

func TestCheckerFiresOnSkippedReplayOps(t *testing.T) {
	o := tracedOutcome()
	o.TraceRuns[0].Skipped = 3
	only(t, o, "trace-replay-determinism")
}

func TestCheckerFiresOnSequenceRewrite(t *testing.T) {
	o := tracedOutcome()
	o.TraceRuns[1].SequenceOK = false
	only(t, o, "trace-replay-determinism")
}

// telemetryOutcome decorates the clean outcome with the telemetry
// dimension and consistent evidence: monitor totals equal to the
// registry counters, closed windows, and matching artifact hashes
// across the replay.
func telemetryOutcome() *Outcome {
	o := cleanOutcome()
	o.Scenario.Telemetry = true
	counts := []TelOpCount{
		{Tenant: "victim", Op: "fsync", Ops: 100, Bytes: 1 << 20, Mean: time.Millisecond},
		{Tenant: "victim", Op: "read", Ops: 100, Bytes: 4 << 20, Mean: 2 * time.Millisecond},
	}
	for _, r := range []*Result{o.Full, o.Replay, o.Solo} {
		r.TelTotals = append([]TelOpCount{}, counts...)
		r.TelRegistry = append([]TelOpCount{}, counts...)
		r.TelWindows = 8
		r.TelAlerts = 2
		r.TelHash = "c0ffeec0ffeec0ffeec0ffee"
	}
	return o
}

func TestCleanTelemetryOutcomePassesAllCheckers(t *testing.T) {
	if vs := CheckAll(telemetryOutcome()); len(vs) != 0 {
		t.Fatalf("clean telemetry outcome violates: %v", vs)
	}
}

func TestCheckerFiresOnTelemetryNoOps(t *testing.T) {
	o := telemetryOutcome()
	o.Full.TelTotals = nil
	only(t, o, "telemetry-consistency")
}

func TestCheckerFiresOnTelemetryNoWindows(t *testing.T) {
	o := telemetryOutcome()
	o.Replay.TelWindows = 0
	only(t, o, "telemetry-consistency")
}

func TestCheckerFiresOnTelemetryCountDrift(t *testing.T) {
	o := telemetryOutcome()
	// The lost-window bug: one windowed op never folded into the totals.
	o.Full.TelTotals[1].Ops--
	only(t, o, "telemetry-consistency")
}

func TestCheckerFiresOnTelemetryRegistryOnlyOp(t *testing.T) {
	o := telemetryOutcome()
	// A facade op the telemetry sink never received.
	o.Solo.TelRegistry = append(o.Solo.TelRegistry, TelOpCount{Tenant: "victim", Op: "stat", Ops: 3})
	only(t, o, "telemetry-consistency")
}

func TestCheckerFiresOnTelemetryMonitorOnlyOp(t *testing.T) {
	o := telemetryOutcome()
	// The double-ingestion bug: the monitor counted an op stream the
	// registry has no record of.
	o.Full.TelTotals = append(o.Full.TelTotals, TelOpCount{Tenant: "zz", Op: "read", Ops: 9})
	only(t, o, "telemetry-consistency")
}

func TestCheckerFiresOnTelemetryHashDivergence(t *testing.T) {
	o := telemetryOutcome()
	o.Replay.TelHash = "deadbeefdeadbeefdeadbeef"
	only(t, o, "telemetry-consistency")
}

func TestTelemetryMismatchOverflowCap(t *testing.T) {
	o := telemetryOutcome()
	// Drift every counter on both runs' first entries plus extras so the
	// per-run cap (3 details + 1 overflow line) engages.
	for i := 0; i < 6; i++ {
		o.Full.TelRegistry = append(o.Full.TelRegistry, TelOpCount{Tenant: "z", Op: string(rune('a' + i)), Ops: 1})
	}
	vs := CheckAll(o)
	if len(vs) != 4 {
		t.Fatalf("got %d violations, want 3 detailed + 1 overflow: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Checker != "telemetry-consistency" {
			t.Fatalf("unexpected violation %v", v)
		}
	}
}

// Every checker in the registry must be exercised by a mutation above;
// this guards against registering a new invariant without a dead-oracle
// test.
func TestEveryCheckerHasAMutation(t *testing.T) {
	covered := map[string]bool{
		"zero-data-loss":           true,
		"blame-sum":                true,
		"span-leak":                true,
		"replay-determinism":       true,
		"isolation-bound":          true,
		"fault-accounting":         true,
		"bounded-queue":            true,
		"admission-accounting":     true,
		"crash-consistency":        true,
		"trace-replay-determinism": true,
		"telemetry-consistency":    true,
		"timeout-ledger":           true,
	}
	for _, c := range Checkers() {
		if !covered[c.Name] {
			t.Errorf("checker %q has no mutation test", c.Name)
		}
	}
	if len(Checkers()) != len(covered) {
		t.Errorf("registry has %d checkers, mutations cover %d", len(Checkers()), len(covered))
	}
}
