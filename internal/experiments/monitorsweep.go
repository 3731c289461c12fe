package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// MonitorCase is one point of the monitor-sweep family: a client
// configuration running a victim tenant with a live telemetry monitor
// and SLO burn-rate alerting attached, disturbed mid-measurement by
// either an open-loop overload burst or a client crash. The sweep is
// the alerting story of the isolation argument: on the
// admission-protected Danaus client the victim's alert fires during
// the disturbance and clears once it passes, while the unprotected
// kernel client accumulates an open-loop backlog that keeps the victim
// in violation long after the burst stops.
type MonitorCase struct {
	Label     string
	Config    core.Configuration
	Protected bool
	// Fault selects the disturbance: "overload" (aggressor burst in
	// pool 1) or "crash" (client crash in the victim pool, host crash
	// for the kernel client).
	Fault string
	Kind  faults.Kind // crash kind when Fault == "crash"
}

// MonitorRow is the outcome of one monitor case.
type MonitorRow struct {
	Label     string
	Config    core.Configuration
	Protected bool
	Fault     string

	// SLOTarget is the calibrated latency target (overload cases): a
	// multiple of the same configuration's unloaded victim p99.
	SLOTarget time.Duration

	// Victim alert accounting for the monitored SLO.
	VictimFired   int
	VictimCleared int
	// VictimActiveEnd reports whether the victim alert was still firing
	// at the end of the measurement window — the sustained-violation
	// signal. It is judged at MeasureEnd, not at engine drain: once the
	// workload stops, a starved victim produces no more ops, its windows
	// go quiet, and the slow burn decays — a clear earned by silence, not
	// by recovery.
	VictimActiveEnd bool
	// MeasureEnd is the absolute virtual time the measurement window
	// closed; alert accounting above ignores ledger events after it.
	MeasureEnd time.Duration
	FirstFire  time.Duration // relative to measurement start (0 = never)
	LastClear  time.Duration
	// BystanderFired counts alerts on the other tenant — the alerting
	// view of blast radius.
	BystanderFired int

	Windows int // window rows emitted for all tenants

	// Monitor is the run's telemetry monitor, finalized; danausbench
	// exports its windows CSV and alert ledger.
	Monitor *telemetry.Monitor
	// Alerts is the full ledger (Monitor.Alerts, kept for convenience).
	Alerts []telemetry.AlertEvent
}

// Monitor sweep geometry, all relative to the measurement window so
// the sweep is scale-invariant: the fast window is 1/20 of the
// measurement (100ms at quick scale, 6s at paper scale), the slow
// confirmation window 5 fast windows, and the disturbance spans
// [20%, 45%] of the measurement so the post-disturbance tail is long
// enough for a recovered tenant's alert to clear.
const (
	monFastFrac    = 20
	monSlowFastN   = 5
	monFaultStart  = 0.20
	monFaultEnd    = 0.45
	monTargetScale = 1.25 // SLO target = monTargetScale x unloaded p99
	// monBurstMult sizes the burst so the unprotected client's open-loop
	// backlog outlives the post-burst measurement tail: the kernel
	// client drains roughly 45k ops/s, so 48x the base rate leaves it
	// saturated well past measurement end while the admission-protected
	// client sheds the excess and recovers within a few fast windows.
	monBurstMult = 48
)

// monVictimSLO is the name of the victim's monitored SLO.
const monVictimSLO = "victim-p99"

// MonitorCases returns the sweep: the protected Danaus client versus
// the unprotected kernel client, each under the overload burst and its
// native crash kind.
func MonitorCases() []MonitorCase {
	return []MonitorCase{
		{Label: "D+adm", Config: core.ConfigD, Protected: true, Fault: "overload"},
		{Label: "K", Config: core.ConfigK, Protected: false, Fault: "overload"},
		{Label: "D+adm", Config: core.ConfigD, Protected: true, Fault: "crash", Kind: faults.DanausCrash},
		{Label: "K", Config: core.ConfigK, Protected: false, Fault: "crash", Kind: faults.HostCrash},
	}
}

// RunMonitorSweep executes every case.
func RunMonitorSweep(scale Scale) []MonitorRow {
	cases := MonitorCases()
	rows := make([]MonitorRow, 0, len(cases))
	for _, c := range cases {
		rows = append(rows, RunMonitorCase(c, scale))
	}
	return rows
}

// monitorConfig derives the monitor windows from the scale.
func monitorConfig(scale Scale, slos []telemetry.SLO) telemetry.Config {
	fast := scale.Duration / monFastFrac
	if fast < time.Millisecond {
		fast = time.Millisecond
	}
	return telemetry.Config{
		FastWindow: fast,
		SlowWindow: monSlowFastN * fast,
		// The monitor ticker closes windows through event gaps (a
		// starved victim stops producing events exactly when the alert
		// must keep evaluating) and samples queue depth peaks.
		SampleInterval: fast / 4,
		SLOs:           slos,
	}
}

// monitorSpec is one monitored run as a scenario: the victim in pool 0
// reads a cold dataset closed-loop for the whole measurement, pool 1
// holds the disturbance, with overload protection per the case. A
// crash case installs the crash at [monFaultStart, monFaultEnd] while
// pool 1 runs a warm reader (the bystander whose alerts measure blast
// radius). An overload case makes pool 1 the aggressor, offering the
// burst open-loop inside the same sub-window. With calibrate set, the
// run is the unloaded baseline: the victim alone, no monitor.
func monitorSpec(c MonitorCase, scale Scale, mon *telemetry.Monitor, calibrate bool) Scenario {
	coldSize := scale.PoolMem() + scale.PoolMem()/2
	const readChunk = 128 << 10
	const warmSize = 16 << 20
	s := Scenario{
		Scale: scale, Cores: 4, Overload: protection(c.Protected),
		Monitor: mon, ArmSLOs: mon != nil,
		Pools: []PoolSpec{
			{Name: "fls0", Config: c.Config, Prep: "prep0", Files: []File{{"/cold", coldSize, 1 << 20}}},
			{Name: "fls1", Config: c.Config, Prep: "prep1"},
		},
		Probes: []Probe{{Kind: SeqProbe, Name: "victim-reader", Pool: 0, Path: "/cold", Size: coldSize, Chunk: readChunk}},
	}
	switch {
	case calibrate:
	case c.Fault == "crash":
		// At 16MB the bystander's file stays resident in its cache.
		s.Pools[1].Files = []File{{"/warm", warmSize, 1 << 20}}
		s.Schedule = crashSchedule(c.Kind, scale, monFaultStart, monFaultEnd)
		s.Probes = append(s.Probes, Probe{Kind: SeqProbe, Name: "bystander-reader", Pool: 1, Path: "/warm", Size: warmSize, Chunk: readChunk})
	case c.Fault == "overload":
		s.Pools[1].Files = []File{{"/cold", coldSize, 1 << 20}}
		s.Probes = append(s.Probes, Probe{
			Kind: OpenProbe, Name: "burst", Pool: 1, Path: "/cold", Size: coldSize, Chunk: overloadOpSize,
			Rate: overloadBaseRate * monBurstMult, Seed: 42, From: monFaultStart, To: monFaultEnd,
		})
	default:
		panic("monitorsweep: unknown fault " + c.Fault)
	}
	return s
}

// RunMonitorCase runs one monitored point. Overload cases first run an
// unloaded calibration pass to set the victim's latency SLO target,
// then the monitored run with the burst; crash cases monitor an
// error-rate SLO (a crash is an availability event, not a latency
// one). The case manages its own monitor — the sweep is about the
// monitor, so it is always attached regardless of the harness's -obs
// flags.
func RunMonitorCase(c MonitorCase, scale Scale) MonitorRow {
	row := MonitorRow{Label: c.Label, Config: c.Config, Protected: c.Protected, Fault: c.Fault}

	var slos []telemetry.SLO
	if c.Fault == "overload" {
		// The unloaded baseline sets the SLO from both the victim's p99
		// and its completions per fast window, which is what a
		// production burn-rate SLO would be: a latency target and a
		// throughput floor derived from the service's own baseline.
		stats := RunScenario(monitorSpec(c, scale, nil, true)).Stats[0]
		base, opsPerWin := stats.Latency.Quantile(0.99), stats.Ops.Ops/monFastFrac
		if base <= 0 {
			base = time.Millisecond
		}
		row.SLOTarget = time.Duration(float64(base) * monTargetScale)
		slos = []telemetry.SLO{{
			Name: monVictimSLO, Tenant: "fls0", Op: "read",
			Target: row.SLOTarget,
			// MinOps 1 plus a throughput floor at half the calibrated
			// rate: a starved victim completes almost nothing, so the
			// shortfall itself must burn budget — gating on completion
			// volume alone would mute the worst case.
			Budget: 0.05, FireBurn: 1.5, ClearBurn: 1, MinOps: 1,
			ExpectedOps: opsPerWin / 2,
		}}
	} else {
		slos = []telemetry.SLO{{
			Name: monVictimSLO, Op: "read",
			Budget: 0.05, FireBurn: 4, ClearBurn: 1, MinOps: 1,
		}}
	}

	mon := telemetry.New(monitorConfig(scale, slos))
	row.MeasureEnd = RunScenario(monitorSpec(c, scale, mon, false)).Clock.Stop
	row.Monitor = mon
	row.Alerts = mon.Alerts()
	row.Windows = len(mon.Windows())
	summarizeAlerts(&row)
	return row
}

// summarizeAlerts folds the ledger into the row's victim/bystander
// accounting. Only events up to MeasureEnd count: after the workload
// stops, the engine drain closes empty victim windows whose silence
// decays the slow burn — a "clear" that reflects absence of traffic,
// not recovery. The full ledger (drain events included) stays on the
// row for export.
func summarizeAlerts(row *MonitorRow) {
	active := map[string]bool{}
	for _, e := range row.Alerts {
		if row.MeasureEnd > 0 && e.T > row.MeasureEnd {
			break
		}
		key := e.Tenant + "/" + e.SLO
		victim := e.Tenant == "fls0" && e.SLO == monVictimSLO
		switch e.State {
		case telemetry.AlertFiring:
			active[key] = true
			if victim {
				row.VictimFired++
				if row.FirstFire == 0 {
					row.FirstFire = e.T
				}
			} else {
				row.BystanderFired++
			}
		case telemetry.AlertClear:
			delete(active, key)
			if victim {
				row.VictimCleared++
				row.LastClear = e.T
			}
		}
	}
	row.VictimActiveEnd = active["fls0/"+monVictimSLO]
}

// MonitorRowViolations checks the alerting invariants on one row —
// the acceptance assertions of the sweep. Overload: the protected
// Danaus client must fire the victim's burn-rate alert during the
// burst AND clear it before the run ends, while the unprotected kernel
// client must fire and still be in violation at drain (the open-loop
// backlog outlives the burst). Crash: the victim's error alert must
// fire and clear on the tenant-scoped Danaus crash with the bystander
// untouched; the host crash must alert both tenants. Returns
// human-readable violations (empty = clean).
func MonitorRowViolations(r MonitorRow) []string {
	var v []string
	tag := fmt.Sprintf("monitorsweep %s %s", r.Label, r.Fault)
	if r.VictimFired == 0 {
		v = append(v, tag+": victim alert never fired")
		return v
	}
	switch r.Fault {
	case "overload":
		if r.Protected {
			if r.VictimCleared == 0 {
				v = append(v, tag+": protected victim alert never cleared")
			}
			if r.VictimActiveEnd {
				v = append(v, tag+": protected victim alert still firing at drain")
			}
		} else {
			if !r.VictimActiveEnd {
				v = append(v, tag+": unprotected victim recovered — expected sustained violation")
			}
		}
	case "crash":
		if r.Protected {
			if r.VictimCleared == 0 {
				v = append(v, tag+": victim error alert never cleared after recovery")
			}
			if r.BystanderFired != 0 {
				v = append(v, fmt.Sprintf("%s: containment violated: %d bystander alerts", tag, r.BystanderFired))
			}
		} else {
			if r.BystanderFired == 0 {
				v = append(v, tag+": host crash raised no bystander alert")
			}
		}
	}
	return v
}

// String renders a row for the harness.
func (r MonitorRow) String() string {
	prot := "off"
	if r.Protected {
		prot = "on"
	}
	end := "clear"
	if r.VictimActiveEnd {
		end = "FIRING"
	}
	return fmt.Sprintf("%-5s %-4s prot=%-3s %-8s target=%-12v fired=%d cleared=%d end=%-6s first=%-12v lastclear=%-12v byst=%d windows=%d",
		r.Label, r.Config, prot, r.Fault, r.SLOTarget,
		r.VictimFired, r.VictimCleared, end, r.FirstFire, r.LastClear,
		r.BystanderFired, r.Windows)
}
