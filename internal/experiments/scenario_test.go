package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/vfsapi"
)

// describeSpec renders the parts of a scenario that fix a run's
// schedule: each pool with its preparation proc and files, then each
// probe, in spec order.
func describeSpec(s Scenario) []string {
	out := []string{fmt.Sprintf("cores=%d repl=%d protected=%v private=%v", s.Cores, s.Replication, s.Overload != nil, s.Private)}
	for _, p := range s.Pools {
		line := fmt.Sprintf("pool %s %s cache=%d clone=%v prep=%s", p.Name, p.Config, p.CacheBytes, p.Clone, p.Prep)
		for _, f := range p.Files {
			line += fmt.Sprintf(" %s:%d/%d", f.Path, f.Size, f.Chunk)
		}
		if t := p.Tenant; t != nil {
			line += fmt.Sprintf(" tenant=%s:%s:%d", t.Workload, t.Dir, t.Threads)
		}
		out = append(out, line)
	}
	kinds := map[ProbeKind]string{WALProbe: "wal", SeqProbe: "seq", OpenProbe: "open"}
	for _, p := range s.Probes {
		line := fmt.Sprintf("probe %s %q pool%d %s size=%d chunk=%d", kinds[p.Kind], p.Name, p.Pool, p.Path, p.Size, p.Chunk)
		if p.Kind == OpenProbe {
			line += fmt.Sprintf(" rate=%g seed=%d", p.Rate, p.Seed)
		}
		if p.From != 0 || p.To != 0 {
			line += fmt.Sprintf(" window=%g-%g", p.From, p.To)
		}
		out = append(out, line)
	}
	return out
}

// The quick-scale cold file: 1.5 x the 171,798,691 B pool memory.
const quickCold = 257698036

// TestSweepSpecsMatchAssembly pins what each isolation sweep's cases
// compile to: the pools, the files each preparation proc writes in
// order, and the probes with their proc names, sizes and chunks. A
// drift here changes the engine schedule and with it the harness rows.
func TestSweepSpecsMatchAssembly(t *testing.T) {
	if got := QuickScale.PoolMem() * 3 / 2; got != quickCold {
		t.Fatalf("quick cold size %d, want %d", got, quickCold)
	}
	fault := func(cfg string, repl int) []string {
		return []string{
			fmt.Sprintf("cores=4 repl=%d protected=false private=false", repl),
			fmt.Sprintf("pool fls0 %s cache=0 clone=false prep=prep0 /wal:0/65536 /cold:%d/1048576", cfg, quickCold),
			fmt.Sprintf("pool fls1 %s cache=0 clone=false prep=prep1 /warm:16777216/16777216", cfg),
			`probe wal "" pool0 /wal size=0 chunk=65536`,
			fmt.Sprintf(`probe seq "cold-reader" pool0 /cold size=%d chunk=262144`, quickCold),
			`probe seq "bystander" pool1 /warm size=16777216 chunk=131072`,
		}
	}
	crash := func(cfg string) []string {
		return []string{
			"cores=4 repl=2 protected=false private=false",
			fmt.Sprintf("pool fls0 %s cache=0 clone=false prep=prep0 /wal:0/65536", cfg),
			fmt.Sprintf("pool fls1 %s cache=0 clone=false prep=prep1 /warm:16777216/16777216", cfg),
			`probe wal "" pool0 /wal size=0 chunk=65536`,
			`probe seq "bystander" pool1 /warm size=16777216 chunk=131072`,
		}
	}
	overload := func(cfg string, prot bool, rate float64) []string {
		want := []string{
			fmt.Sprintf("cores=4 repl=0 protected=%v private=false", prot),
			fmt.Sprintf("pool fls0 %s cache=0 clone=false prep=prep0 /cold:%d/1048576", cfg, quickCold),
			fmt.Sprintf("pool fls1 %s cache=0 clone=false prep=prep1 /cold:%d/1048576", cfg, quickCold),
			fmt.Sprintf(`probe seq "victim-reader" pool0 /cold size=%d chunk=131072`, quickCold),
		}
		if rate > 0 {
			want = append(want, fmt.Sprintf(`probe open "" pool1 /cold size=%d chunk=262144 rate=%g seed=42`, quickCold, rate))
		}
		return want
	}
	monitor := func(cfg string, prot bool, pool1Files, probe1 string) []string {
		want := []string{
			fmt.Sprintf("cores=4 repl=0 protected=%v private=false", prot),
			fmt.Sprintf("pool fls0 %s cache=0 clone=false prep=prep0 /cold:%d/1048576", cfg, quickCold),
			fmt.Sprintf("pool fls1 %s cache=0 clone=false prep=prep1%s", cfg, pool1Files),
			fmt.Sprintf(`probe seq "victim-reader" pool0 /cold size=%d chunk=131072`, quickCold),
		}
		if probe1 != "" {
			want = append(want, probe1)
		}
		return want
	}
	burst := fmt.Sprintf(`probe open "burst" pool1 /cold size=%d chunk=262144 rate=72000 seed=42 window=0.2-0.45`, quickCold)
	byst := `probe seq "bystander-reader" pool1 /warm size=16777216 chunk=131072`

	type check struct {
		name     string
		spec     Scenario
		want     []string
		schedule string
	}
	var checks []check
	fc := FaultSweepCases(QuickScale)
	for i, want := range [][]string{fault("D", 2), fault("D", 2), fault("K", 2), fault("D", 1)} {
		checks = append(checks, check{"fault/" + fc[i].Label, faultSpec(fc[i], QuickScale), want, fc[i].Schedule})
	}
	cc := CrashSweepCases()
	for i, sched := range []string{"danaus-crash:fls0:600ms-1s", "fuse-crash:fls0:600ms-1s", "host-crash:600ms-1s"} {
		checks = append(checks, check{"crash/" + cc[i].Label, crashSpec(cc[i], QuickScale), crash(cc[i].Config.String()), sched})
	}
	for _, c := range OverloadCases() {
		want := overload(c.Config.String(), c.Protected, 1500*float64(c.Multiplier))
		checks = append(checks, check{fmt.Sprintf("overload/%s/%dx", c.Label, c.Multiplier), overloadSpec(c, QuickScale), want, ""})
	}
	mc := MonitorCases()
	checks = append(checks,
		check{"monitor/calibrate", monitorSpec(mc[0], QuickScale, nil, true), monitor("D", true, "", ""), ""},
		check{"monitor/D+adm/overload", monitorSpec(mc[0], QuickScale, nil, false), monitor("D", true, fmt.Sprintf(" /cold:%d/1048576", quickCold), burst), ""},
		check{"monitor/K/overload", monitorSpec(mc[1], QuickScale, nil, false), monitor("K", false, fmt.Sprintf(" /cold:%d/1048576", quickCold), burst), ""},
		check{"monitor/D+adm/crash", monitorSpec(mc[2], QuickScale, nil, false), monitor("D", true, " /warm:16777216/1048576", byst), "danaus-crash:fls0:400ms-900ms"},
		check{"monitor/K/crash", monitorSpec(mc[3], QuickScale, nil, false), monitor("K", false, " /warm:16777216/1048576", byst), "host-crash:400ms-900ms"},
	)
	for _, c := range checks {
		if got := describeSpec(c.spec); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s compiles to\n  %s\nwant\n  %s", c.name, strings.Join(got, "\n  "), strings.Join(c.want, "\n  "))
		}
		if c.spec.Schedule != c.schedule {
			t.Errorf("%s schedule %q, want %q", c.name, c.spec.Schedule, c.schedule)
		}
		if c.spec.Scale != QuickScale || c.spec.Capture != "" {
			t.Errorf("%s: scale %+v, capture %q", c.name, c.spec.Scale, c.spec.Capture)
		}
	}
}

// TestSweepSideSharedChecks: the overload and crash sweeps judge their
// rows with the same admission and crash checks the fuzzer registers,
// so an over-cap queue, an unbalanced ledger, a drained pool still
// holding work and an unrecovered or lossy crash are all flagged from
// the sweep side.
func TestSweepSideSharedChecks(t *testing.T) {
	clean := OverloadRow{Label: "D+adm", Multiplier: 4, QueueCap: 8,
		Admission: vfsapi.AdmissionStats{Offered: 100, Admitted: 90, Shed: 10, MaxQueued: 8}}
	if vs := OverloadRowViolations(clean); len(vs) != 0 {
		t.Fatalf("clean overload row flagged: %v", vs)
	}
	for name, mutate := range map[string]func(r *OverloadRow){
		"bounded queue violated":             func(r *OverloadRow) { r.Admission.MaxQueued = r.QueueCap + 1 },
		"admission accounting violated":      func(r *OverloadRow) { r.Admission.Shed-- },
		"drained with 0 in flight, 3 queued": func(r *OverloadRow) { r.Admission.Queued = 3 },
		"drained with 1 in flight, 0 queued": func(r *OverloadRow) { r.Admission.InFlight, r.Admission.Admitted = 1, 89 },
	} {
		r := clean
		mutate(&r)
		vs := OverloadRowViolations(r)
		if len(vs) != 1 || !strings.Contains(vs[0], name) || !strings.HasPrefix(vs[0], "overloadsweep D+adm 4x: pool fls1: ") {
			t.Errorf("%s: got %q", name, vs)
		}
	}

	ok := CrashSweepRow{Label: "danaus-crash", Config: core.ConfigD, Kind: faults.DanausCrash,
		VictimErrors: 3, AffectedTenants: 1,
		Crash: CrashEvidence{Events: 1, Recovered: 1, Affected: 1, Acked: 1 << 20, Remount: 1 << 20}}
	if vs := CrashRowViolations(ok); len(vs) != 0 {
		t.Fatalf("clean crash row flagged: %v", vs)
	}
	for name, mutate := range map[string]func(r *CrashSweepRow){
		"recovery never completed":   func(r *CrashSweepRow) { r.Crash.Recovered = 0 },
		"durability violated":        func(r *CrashSweepRow) { r.Crash.Remount -= 4096 },
		"no crash event recorded":    func(r *CrashSweepRow) { r.Crash = CrashEvidence{} },
		"crash window had no effect": func(r *CrashSweepRow) { r.VictimErrors = 0 },
	} {
		r := ok
		mutate(&r)
		vs := CrashRowViolations(r)
		if len(vs) != 1 || !strings.Contains(vs[0], name) || !strings.HasPrefix(vs[0], "crashsweep D danaus-crash: ") {
			t.Errorf("%s: got %q", name, vs)
		}
	}
}
