package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/fuzz"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// TestNoteViolationsAccumulates checks the satellite invariant plumbing:
// violations reported by experiment rows land in the accumulator that
// turns the exit status nonzero.
func TestNoteViolationsAccumulates(t *testing.T) {
	invariantFailures = 0
	defer func() { invariantFailures = 0 }()

	noteViolations(nil)
	if invariantFailures != 0 {
		t.Fatalf("clean rows counted as failures: %d", invariantFailures)
	}

	// A pool whose admission queue overran its cap and whose accounting
	// does not balance must produce two violations at drain.
	noteDrained(nil, experiments.DrainEvidence{Admission: []experiments.TenantAdmission{{
		Tenant: "fls1", QueueCap: 8,
		Stats: vfsapi.AdmissionStats{
			Offered: 10, Admitted: 5, Shed: 3, // 2 ops unaccounted
			MaxQueued: 9,
		},
	}}}.Violations())
	if invariantFailures != 2 {
		t.Fatalf("accumulator = %d, want 2", invariantFailures)
	}

	// A faultsweep row that lost acknowledged bytes despite a surviving
	// replica is a violation; one with replication 1 is not.
	loss := experiments.FaultSweepRow{Replication: 2, DataLossBytes: 4096}
	if vs := experiments.FaultRowViolations(loss); len(vs) != 1 {
		t.Fatalf("want 1 data-loss violation, got %v", vs)
	}
	loss.Replication = 1
	if vs := experiments.FaultRowViolations(loss); len(vs) != 0 {
		t.Fatalf("replication-1 loss is not a violation, got %v", vs)
	}
}

// TestCleanOverloadRowPasses confirms a consistent row's admission
// ledger passes the drain checks (so healthy sweeps keep exit status
// zero).
func TestCleanOverloadRowPasses(t *testing.T) {
	ok := experiments.OverloadRow{
		Label: "D+adm", Multiplier: 2, QueueCap: 32,
		Admission: vfsapi.AdmissionStats{
			Offered: 100, Admitted: 90, Shed: 10, MaxQueued: 32,
		},
	}
	a := experiments.TenantAdmission{Tenant: "fls1", QueueCap: ok.QueueCap, Stats: ok.Admission}
	if vs := (experiments.DrainEvidence{Admission: []experiments.TenantAdmission{a}}).Violations(); len(vs) != 0 {
		t.Fatalf("clean row flagged: %v", vs)
	}
}

// TestFuzzSweepViolationsAccumulate: fuzzsweep violations go through
// the same accumulator as every other sweep's, so under -exp all the
// experiments sorted after it and the artifact exports still run
// before the nonzero exit; a clean sweep adds nothing.
func TestFuzzSweepViolationsAccumulate(t *testing.T) {
	invariantFailures = 0
	defer func() { invariantFailures = 0 }()

	noteViolations(fuzzViolations(fuzz.Summary{Scenarios: 3, ByChecker: map[string]int{}}))
	if invariantFailures != 0 {
		t.Fatalf("clean fuzz sweep counted as failures: %d", invariantFailures)
	}
	sum := fuzz.Summary{Scenarios: 3, Violations: 3, ByChecker: map[string]int{"zero-data-loss": 2, "span-leak": 1}}
	vs := fuzzViolations(sum)
	want := []string{"fuzzsweep: 1 span-leak violation(s)", "fuzzsweep: 2 zero-data-loss violation(s)"}
	if len(vs) != len(want) || vs[0] != want[0] || vs[1] != want[1] {
		t.Fatalf("fuzzViolations = %q, want %q", vs, want)
	}
	noteViolations(vs)
	if invariantFailures != 2 {
		t.Fatalf("accumulator = %d, want 2", invariantFailures)
	}
}

// TestDrainViolationDoesNotStopAll: a run whose drain checks fail is
// reported through the experiments.Drained sink main installs and
// counted, and the experiments sorted after it still run, so -exp all
// finishes before the nonzero exit.
func TestDrainViolationDoesNotStopAll(t *testing.T) {
	invariantFailures = 0
	saved := experimentsByName
	experiments.Drained = noteDrained
	defer func() { invariantFailures, experimentsByName, experiments.Drained = 0, saved, nil }()

	ran := false
	experimentsByName = map[string]func(experiments.Scale){
		// A request span that never ends: the drain's span-leak check.
		"a-leak": func(s experiments.Scale) {
			tb, _ := experiments.Scenario{Scale: s, Cores: 2, Private: true}.Testbed()
			experiments.Drive(tb, func(p *sim.Proc) { tb.Obs.StartSpan(p.ID(), "t0", "read") })
		},
		"b-clean": func(s experiments.Scale) {
			tb, _ := experiments.Scenario{Scale: s, Cores: 2}.Testbed()
			experiments.Drive(tb, func(p *sim.Proc) { ran = true })
		},
	}
	runAll([]string{"a-leak", "b-clean"}, experiments.QuickScale)
	if !ran {
		t.Fatal("the experiment after the violating one did not run")
	}
	if invariantFailures != 1 {
		t.Fatalf("accumulator = %d, want the one span leak", invariantFailures)
	}
}
