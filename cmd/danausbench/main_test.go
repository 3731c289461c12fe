package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/fuzz"
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

	// A row whose admission queue overran its cap and whose accounting
	// does not balance must produce two violations.
	bad := experiments.OverloadRow{
		Label: "D+adm", Multiplier: 4, QueueCap: 8,
		Admission: vfsapi.AdmissionStats{
			Offered: 10, Admitted: 5, Shed: 3, // 2 ops unaccounted
			MaxQueued: 9,
		},
	}
	vs := experiments.OverloadRowViolations(bad)
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %d: %v", len(vs), vs)
	}
	noteViolations(vs)
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

// TestCleanOverloadRowPasses confirms a consistent row yields no
// violations (so healthy sweeps keep exit status zero).
func TestCleanOverloadRowPasses(t *testing.T) {
	ok := experiments.OverloadRow{
		Label: "D+adm", Multiplier: 2, QueueCap: 32,
		Admission: vfsapi.AdmissionStats{
			Offered: 100, Admitted: 90, Shed: 10, MaxQueued: 32,
		},
	}
	if vs := experiments.OverloadRowViolations(ok); len(vs) != 0 {
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
