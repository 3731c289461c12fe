package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// AttachMonitor wires a live telemetry monitor into the testbed on top
// of an attached observer: completed facade ops and cross-tenant wait
// attributions stream into the monitor's windowed aggregates as they
// happen, an admission probe exposes per-pool queue depth and shed
// counts, and engine drain finalizes the trailing window.
//
// Call it after AttachObserver (it feeds off the obs recorder; without
// one it is a no-op) and before the workload starts. Determinism and
// overhead: ingestion uses event-carried virtual times and reads no
// clock, so with SampleInterval == 0 the monitor adds zero engine
// events and the run's schedule is event-for-event identical to an
// unmonitored one. SampleInterval > 0 adds a periodic ticker — still
// deterministic, but an intentional schedule change — that closes
// windows during event gaps and samples queue-depth peaks. A nil
// monitor is a no-op.
func (tb *Testbed) AttachMonitor(mon *telemetry.Monitor) {
	if mon == nil || tb.Obs == nil {
		return
	}
	tb.Monitor = mon
	tb.Obs.Subscribe(obs.Subscriber{
		Op: func(e obs.OpEvent) {
			mon.RecordOp(e.Issue+e.Latency, e.Tenant, e.Op, e.Latency, e.Bytes, e.Err)
		},
		Wait: func(victim, aggressor string, start, dur time.Duration) {
			mon.RecordWait(start+dur, dur, victim, aggressor)
		},
	})
	mon.SetAdmissionProbe(func() []telemetry.AdmissionSample {
		out := make([]telemetry.AdmissionSample, 0, len(tb.pools))
		for _, p := range tb.pools {
			if p.Admission == nil {
				continue
			}
			s := p.Admission.Stats()
			out = append(out, telemetry.AdmissionSample{
				Tenant: p.Name, Queued: s.Queued, Shed: s.Shed,
			})
		}
		return out
	})
	if iv := mon.SampleInterval(); iv > 0 {
		var tick func()
		tick = func() {
			if tb.stopped {
				return
			}
			mon.Tick(tb.Eng.Now())
			tb.Eng.After(iv, tick)
		}
		tb.Eng.After(iv, tick)
	}
	tb.Obs.OnFinalize(func(*obs.Registry) { mon.Finalize(tb.Eng.Now()) })
}
