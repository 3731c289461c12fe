package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// cleanDrain is drain evidence every check accepts: a balanced timeout
// ledger and one admission-controlled pool whose ledger closes.
func cleanDrain() DrainEvidence {
	return DrainEvidence{
		Engine: sim.Stats{TimeoutsArmed: 5, TimeoutsCancelled: 4, TimeoutsFired: 1},
		Admission: []TenantAdmission{{Tenant: "fls1", QueueCap: 8,
			Stats: vfsapi.AdmissionStats{Offered: 100, Admitted: 90, Shed: 10, MaxQueued: 8}}},
	}
}

// TestDrainChecks: each drain check fires, under its own name and only
// it, on the breach it exists for.
func TestDrainChecks(t *testing.T) {
	if vs := cleanDrain().Violations(); len(vs) != 0 {
		t.Fatalf("clean drain flagged: %v", vs)
	}
	for _, c := range []struct {
		check, detail string
		mutate        func(e *DrainEvidence)
	}{
		{"bounded-queue", "pool fls1: bounded queue violated: max queued 9 > cap 8",
			func(e *DrainEvidence) { e.Admission[0].Stats.MaxQueued = 9 }},
		{"admission-accounting", "pool fls1: admission accounting violated: offered 101 != admitted 90 + shed 10 + queued 0",
			func(e *DrainEvidence) { e.Admission[0].Stats.Offered++ }},
		// A queued operation is offered but not yet admitted.
		{"admission-accounting", "pool fls1: drained with 0 in flight, 3 queued",
			func(e *DrainEvidence) { e.Admission[0].Stats.Offered, e.Admission[0].Stats.Queued = 103, 3 }},
		{"admission-accounting", "pool fls1: drained with 0 in flight, 1 queued",
			func(e *DrainEvidence) { e.Admission[0].Stats.Offered, e.Admission[0].Stats.Queued = 101, 1 }},
		// An operation in flight was admitted when it got its slot.
		{"admission-accounting", "pool fls1: drained with 1 in flight, 0 queued",
			func(e *DrainEvidence) { e.Admission[0].Stats.InFlight = 1 }},
		{"timeout-ledger", "timeout ledger unbalanced: armed 6 != cancelled 4 + fired 1, 0 pending",
			func(e *DrainEvidence) { e.Engine.TimeoutsArmed++ }},
		{"timeout-ledger", "timeout ledger unbalanced: armed 6 != cancelled 4 + fired 1, 1 pending",
			func(e *DrainEvidence) { e.Engine.TimeoutsArmed, e.Engine.TimeoutsPending = 6, 1 }},
		{"span-leak", "2 leaked span(s): span 7",
			func(e *DrainEvidence) { e.Leaked = []string{"span 7", "span 9"} }},
	} {
		e := cleanDrain()
		c.mutate(&e)
		want := []Violation{{Check: c.check, Detail: c.detail}}
		if got := e.Violations(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", c.check, got, want)
		}
	}
}

// TestDriveChecksTheDrainedTestbed: Drive reads its evidence from the
// testbed it drained and reports it to the Drained sink. An admission
// slot taken and never released leaves the pool's ledger open, and a
// request span never ended leaks.
func TestDriveChecksTheDrainedTestbed(t *testing.T) {
	var sunk []Violation
	Drained = func(_ *core.Testbed, vs []Violation) { sunk = vs }
	defer func() { Drained = nil }()
	s := Scenario{Scale: QuickScale, Cores: 2, Private: true, Overload: protection(true),
		Pools: []PoolSpec{{Name: "fls0", NoContainer: true}}}
	tb, _ := s.Testbed()
	vs := Drive(tb, func(p *sim.Proc) {
		if err := tb.Pools()[0].Admission.Admit(vfsapi.Ctx{P: p, T: tb.Pools()[0].NewThread()}); err != nil {
			t.Fatal(err)
		}
		tb.Obs.StartSpan(p.ID(), "fls0", "read")
	})
	if !reflect.DeepEqual(sunk, vs) {
		t.Fatalf("sink got %v, Drive returned %v", sunk, vs)
	}
	var lines []string
	for _, v := range vs {
		lines = append(lines, v.String())
		if v.Check != "admission-accounting" && v.Check != "span-leak" {
			t.Errorf("unexpected %v", v)
		}
	}
	got := strings.Join(lines, "\n")
	for _, want := range []string{"admission-accounting: pool fls0: drained with 1 in flight, 0 queued", "span-leak: 1 leaked span(s): "} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}
