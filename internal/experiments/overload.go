package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/vfsapi"
)

// OverloadCase is one point of the overload-sweep family: a client
// configuration, with or without the overload-protection policy,
// driven by an open-loop aggressor at a multiple of the base offered
// load while a closed-loop victim measures tail latency.
type OverloadCase struct {
	Label      string
	Config     core.Configuration
	Protected  bool // admission control + breaker + brownout enabled
	Multiplier int  // offered load = Multiplier x base rate; 0 = unloaded
}

// OverloadRow is the outcome of one overload case.
type OverloadRow struct {
	Label      string
	Config     core.Configuration
	Protected  bool
	Multiplier int

	// OfferedRate is the aggressor's configured arrival rate (req/s).
	OfferedRate float64
	// Open-loop aggressor accounting over the whole run.
	Offered   uint64
	Completed uint64
	Shed      uint64
	Failed    uint64
	// ShedRate is Shed/Offered.
	ShedRate float64

	// Victim tail latency inside the measurement window, and its ratio
	// to the same configuration's unloaded (Multiplier 0) value.
	VictimP99      time.Duration
	VictimP99Ratio float64
	VictimMBps     float64

	// Admission is the aggressor pool's admission snapshot after the
	// run drained (zero when unprotected); QueueCap its configured
	// bound — the bounded-queue invariant is Admission.MaxQueued <=
	// QueueCap.
	Admission vfsapi.AdmissionStats
	QueueCap  int

	// BreakerOpens and BrownoutFlips count degraded-mode activity.
	BreakerOpens  uint64
	BrownoutFlips uint64
}

// overloadBaseRate is the base (1x) offered load in requests per
// second. It is chosen so 1x approaches the backend's service capacity
// for cold 256 KiB reads and 4x is firmly past it.
const overloadBaseRate = 1500.0

// overloadOpSize is the aggressor's per-request read size.
const overloadOpSize = 256 << 10

// OverloadCases returns the sweep: the protected Danaus client versus
// the unprotected kernel client at 0x (unloaded baseline), 1x, 2x and
// 4x offered load.
func OverloadCases() []OverloadCase {
	var cases []OverloadCase
	for _, mult := range []int{0, 1, 2, 4} {
		cases = append(cases, OverloadCase{
			Label: "D+adm", Config: core.ConfigD, Protected: true, Multiplier: mult,
		})
	}
	for _, mult := range []int{0, 1, 2, 4} {
		cases = append(cases, OverloadCase{
			Label: "K", Config: core.ConfigK, Protected: false, Multiplier: mult,
		})
	}
	return cases
}

// RunOverloadSweep executes every case and fills VictimP99Ratio
// against each configuration's own unloaded baseline.
func RunOverloadSweep(scale Scale) []OverloadRow {
	cases := OverloadCases()
	rows := make([]OverloadRow, 0, len(cases))
	baseline := map[string]time.Duration{}
	for _, c := range cases {
		row := RunOverloadCase(c, scale)
		if c.Multiplier == 0 {
			baseline[c.Label] = row.VictimP99
		}
		if base := baseline[c.Label]; base > 0 {
			row.VictimP99Ratio = float64(row.VictimP99) / float64(base)
		}
		rows = append(rows, row)
	}
	return rows
}

// overloadSpec is one overload point as a scenario: victim pool 0
// issues closed-loop cold reads (the tail-latency probe), aggressor
// pool 1 is driven by the open-loop Poisson generator at the case's
// offered load. Both pools mount the case's configuration; the
// protection policy applies testbed-wide when the case is protected.
func overloadSpec(c OverloadCase, scale Scale) Scenario {
	// Both datasets overflow their pool's cache so reads keep hitting
	// the shared backend — the resource the aggressor overloads.
	coldSize := scale.PoolMem() + scale.PoolMem()/2
	s := Scenario{
		Scale: scale, Cores: 4, Overload: protection(c.Protected),
		Pools: []PoolSpec{
			{Name: "fls0", Config: c.Config, Prep: "prep0", Files: []File{{"/cold", coldSize, 1 << 20}}},
			{Name: "fls1", Config: c.Config, Prep: "prep1", Files: []File{{"/cold", coldSize, 1 << 20}}},
		},
		Probes: []Probe{{Kind: SeqProbe, Name: "victim-reader", Pool: 0, Path: "/cold", Size: coldSize, Chunk: 128 << 10}},
	}
	if c.Multiplier > 0 {
		s.Probes = append(s.Probes, Probe{
			Kind: OpenProbe, Pool: 1, Path: "/cold", Size: coldSize, Chunk: overloadOpSize,
			Rate: overloadBaseRate * float64(c.Multiplier), Seed: 42,
		})
	}
	return s
}

// RunOverloadCase runs one overload point (see overloadSpec).
func RunOverloadCase(c OverloadCase, scale Scale) OverloadRow {
	run := RunScenario(overloadSpec(c, scale))
	probe := run.Stats[0]
	row := OverloadRow{
		Label: c.Label, Config: c.Config, Protected: c.Protected,
		Multiplier:    c.Multiplier,
		OfferedRate:   overloadBaseRate * float64(c.Multiplier),
		VictimP99:     probe.Latency.Quantile(0.99),
		VictimMBps:    probe.ThroughputMBps(run.Clock.Window()),
		BrownoutFlips: run.TB.Kernel.BrownoutFlips(),
	}
	for _, cont := range run.Conts {
		if cont.Mount.Client != nil {
			row.BreakerOpens += cont.Mount.Client.BreakerStats().Opens
		}
	}
	if ol := run.OpenLoop; ol != nil {
		row.Offered, row.Completed, row.Shed, row.Failed = ol.Offered, ol.Completed, ol.Shed, ol.Failed
		if ol.Offered > 0 {
			row.ShedRate = float64(ol.Shed) / float64(ol.Offered)
		}
	}
	for _, a := range run.Admission {
		if a.Tenant == "fls1" {
			row.Admission, row.QueueCap = a.Stats, a.QueueCap
		}
	}
	return row
}

// String renders a row for the harness.
func (r OverloadRow) String() string {
	prot := "off"
	if r.Protected {
		prot = "on"
	}
	return fmt.Sprintf("%-5s %-4s prot=%-3s load=%dx (%5.0f req/s) victim p99 %-12v x%-5.2f %6.1f MB/s  offered=%-6d done=%-6d shed=%-6d (%4.1f%%) maxq=%-3d opens=%-3d brownouts=%d",
		r.Label, r.Config, prot, r.Multiplier, r.OfferedRate,
		r.VictimP99, r.VictimP99Ratio, r.VictimMBps,
		r.Offered, r.Completed, r.Shed, 100*r.ShedRate,
		r.Admission.MaxQueued, r.BreakerOpens, r.BrownoutFlips)
}
