package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runObserved runs one fault-sweep case with an engine event counter
// and, when sample >= 0, an attached recorder (sample is its
// SampleInterval; 0 records spans but schedules no sampler events).
// sample < 0 runs without any recorder. It also returns the engine's
// self-counters at the end of the run.
func runObserved(sample time.Duration) (FaultSweepRow, *obs.Recorder, int, sim.Stats) {
	var row FaultSweepRow
	rec, events, stats := observe(sample, func() { row = RunFaultSweep(FaultSweepCases(QuickScale)[0], QuickScale) })
	return row, rec, events, stats
}

// observe runs run with the engine event counter and, when sample >= 0,
// the recorder of runObserved attached to the testbed it builds.
func observe(sample time.Duration, run func()) (*obs.Recorder, int, sim.Stats) {
	var rec *obs.Recorder
	var eng *sim.Engine
	events := 0
	Observer = func(tb *core.Testbed) {
		eng = tb.Eng
		tb.Eng.SetTracer(func(sim.TraceEvent) { events++ })
		if sample >= 0 {
			rec = obs.New(obs.Config{
				Clock:          tb.Eng.Now,
				SampleInterval: sample,
				MaxEvents:      200_000,
			})
			tb.AttachObserver(rec)
		}
	}
	defer func() { Observer = nil }()
	run()
	return rec, events, eng.Stats()
}

// TestObservabilityGolden runs the same recorded fault-sweep case
// twice and requires byte-identical trace and metrics artifacts — the
// determinism contract of OBSERVABILITY.md — and that the trace
// attributes flusher writeback work to the originating tenant.
func TestObservabilityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row1, rec1, _, _ := runObserved(10 * time.Millisecond)
	row2, rec2, _, _ := runObserved(10 * time.Millisecond)
	if row1 != row2 {
		t.Fatalf("recorded runs diverged:\n  %+v\nvs\n  %+v", row1, row2)
	}

	var t1, t2, m1, m2 bytes.Buffer
	if err := obs.WriteTrace(&t1, []obs.Run{{Label: "run0", Rec: rec1}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTrace(&t2, []obs.Run{{Label: "run0", Rec: rec2}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("trace artifacts not byte-identical across identical runs")
	}
	if err := obs.WriteMetrics(&m1, []obs.Run{{Label: "run0", Rec: rec1}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetrics(&m2, []obs.Run{{Label: "run0", Rec: rec2}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("metrics artifacts not byte-identical across identical runs")
	}

	// Flusher attribution: the victim pool's dirty WAL data recruits
	// writeback, and its spans must carry the originating tenant even
	// though the work runs on a background flusher.
	trace := t1.String()
	if !strings.Contains(trace, `"name":"writeback"`) {
		t.Fatal("trace has no writeback spans")
	}
	if !strings.Contains(trace, `"op":"writeback","tenant":"fls0"`) {
		t.Fatal("writeback spans not tagged with the originating tenant")
	}
	if !strings.Contains(trace, `"cat":"core"`) {
		t.Fatal("trace has no core slices")
	}
	if !strings.Contains(m1.String(), `"core_util_pct"`) {
		t.Fatal("metrics missing the sampled core_util_pct series")
	}
}

// TestObservabilityZeroOverhead verifies the zero-overhead-when-
// disabled contract: a run with no recorder and a run with a recorder
// whose sampler is off execute the exact same engine schedule (event
// for event) and produce identical rows — the recorder only reads the
// virtual clock. The engine's self-counters are read on both runs and
// must agree too: counting is part of the engine, not an observer. The
// contract is checked on a fault-sweep case and on F seqread.
func TestObservabilityZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rowOff, _, eventsOff, statsOff := runObserved(-1)
	rowOn, rec, eventsOn, statsOn := runObserved(0)
	if rowOff != rowOn {
		t.Fatalf("recorder changed results:\n  %+v\nvs\n  %+v", rowOff, rowOn)
	}
	if eventsOff != eventsOn {
		t.Fatalf("recorder changed the engine schedule: %d events without, %d with", eventsOff, eventsOn)
	}
	if statsOff != statsOn {
		t.Fatalf("recorder changed the engine counters:\n  %+v\nvs\n  %+v", statsOff, statsOn)
	}
	if statsOn.TimeoutsArmed == 0 || statsOn.EventHeapHigh == 0 {
		t.Fatalf("engine counters not counting: %+v", statsOn)
	}
	if statsOn.TimeoutsArmed != statsOn.TimeoutsCancelled+statsOn.TimeoutsFired+statsOn.TimeoutsPending {
		t.Fatalf("timeout ledger does not balance: %+v", statsOn)
	}
	if len(rec.Slices()) == 0 {
		t.Fatal("recorder with sampler off should still record spans")
	}
	zeroOverheadChained(t)
}

// zeroOverheadChained is TestObservabilityZeroOverhead's contract on F
// seqread, where client_lock acquisitions and FUSE crossings run as
// sim.Chain segments: the chain reports lock waits to the wait observer
// and to the request span (LockObserved) from engine callbacks, and
// must do so without changing the schedule.
func zeroOverheadChained(t *testing.T) {
	scale := Scale{Factor: 0.02, Duration: 100 * time.Millisecond, Warmup: 20 * time.Millisecond}
	var rowOff, rowOn ScaleoutRow
	_, eventsOff, statsOff := observe(-1, func() { rowOff = RunSeqIOScaleout(core.ConfigF, 2, false, scale) })
	rec, eventsOn, statsOn := observe(0, func() { rowOn = RunSeqIOScaleout(core.ConfigF, 2, false, scale) })
	if rowOff != rowOn {
		t.Fatalf("recorder changed results:\n  %+v\nvs\n  %+v", rowOff, rowOn)
	}
	if eventsOff != eventsOn || statsOff != statsOn {
		t.Fatalf("recorder changed the engine schedule: %d events %+v without, %d events %+v with",
			eventsOff, statsOff, eventsOn, statsOn)
	}
	if len(rec.Slices()) == 0 {
		t.Fatal("recorder recorded no spans")
	}
	var m bytes.Buffer
	if err := obs.WriteMetrics(&m, []obs.Run{{Label: "run0", Rec: rec}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "client_lock") {
		t.Fatal("metrics carry no client_lock waits from the chained lock hook")
	}
}

// runMonitored mirrors runObserved but additionally attaches a
// telemetry Monitor behind the recorder. With SampleInterval 0 the
// monitor is purely event-driven: it must see every facade op while
// adding zero engine events.
func runMonitored() (FaultSweepRow, *telemetry.Monitor, int) {
	var mon *telemetry.Monitor
	events := 0
	Observer = func(tb *core.Testbed) {
		tb.Eng.SetTracer(func(sim.TraceEvent) { events++ })
		rec := obs.New(obs.Config{
			Clock:          tb.Eng.Now,
			SampleInterval: 0,
			MaxEvents:      200_000,
		})
		tb.AttachObserver(rec)
		mon = telemetry.New(telemetry.Config{
			FastWindow:     50 * time.Millisecond,
			SlowWindow:     250 * time.Millisecond,
			SampleInterval: 0,
			SLOs:           []telemetry.SLO{{Name: "err-burn", Budget: 0.02}},
		})
		tb.AttachMonitor(mon)
	}
	defer func() { Observer = nil }()
	row := RunFaultSweep(FaultSweepCases(QuickScale)[0], QuickScale)
	return row, mon, events
}

// TestTelemetryZeroOverhead extends the zero-overhead contract one
// layer up: attaching a telemetry Monitor with its ticker disabled
// (SampleInterval 0) must leave the engine schedule event-identical to
// a bare run and change no results, while the monitor still aggregates
// windows and totals from the event stream alone.
func TestTelemetryZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rowOff, _, eventsOff, _ := runObserved(-1)
	rowOn, mon, eventsOn := runMonitored()
	if rowOff != rowOn {
		t.Fatalf("monitor changed results:\n  %+v\nvs\n  %+v", rowOff, rowOn)
	}
	if eventsOff != eventsOn {
		t.Fatalf("monitor changed the engine schedule: %d events without, %d with", eventsOff, eventsOn)
	}
	if len(mon.Windows()) == 0 {
		t.Fatal("event-driven monitor closed no windows")
	}
	tot := mon.Totals()
	if len(tot) == 0 {
		t.Fatal("event-driven monitor collected no totals")
	}
	var ops uint64
	for _, tt := range tot {
		ops += tt.Ops
	}
	if ops == 0 {
		t.Fatal("event-driven monitor counted zero ops")
	}
}
