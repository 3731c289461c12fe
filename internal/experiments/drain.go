package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Drained, when non-nil, receives every testbed Drive has drained,
// with the violations its drain checks found (none for a clean run):
// the one sink through which danausbench turns a broken run into a
// nonzero exit. Nil drops the reports; each Run still carries its own.
var Drained func(tb *core.Testbed, vs []Violation)

// Violation is one breach a drain check found. Check names the check
// ("timeout-ledger", "bounded-queue", "admission-accounting" or
// "span-leak", the names the fuzzer's registry reports them under).
type Violation struct {
	Check  string
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Drive runs master as the testbed's orchestration process, stops the
// testbed when master returns, drains the engine, and ends in the
// drain checks: every run of the package, figure or sweep, finishes
// here. The violations found go to Drained and are returned.
func Drive(tb *core.Testbed, master func(p *sim.Proc)) []Violation {
	tb.Eng.Go("master", func(p *sim.Proc) {
		defer tb.Stop()
		master(p)
	})
	tb.Eng.Run()
	vs := DrainEvidence{Engine: tb.Eng.Stats(), Admission: admissions(tb), Leaked: tb.Obs.LeakedSpans()}.Violations()
	if Drained != nil {
		Drained(tb, vs)
	}
	return vs
}

// DrainEvidence is what the drain checks read from a drained testbed:
// the engine's counters, every admission-controlled pool's ledger and
// the spans still open (nil without a recorder).
type DrainEvidence struct {
	Engine    sim.Stats
	Admission []TenantAdmission
	Leaked    []string
}

// Violations runs the checks that hold for every run, whatever it
// measured: every timeout the engine armed was cancelled by an earlier
// wake or fired, with none pending; every admission queue stayed
// within its cap and accounts every offered operation; and no span
// outlived the run.
func (e DrainEvidence) Violations() []Violation {
	var vs []Violation
	add := func(check string, details []string) {
		for _, d := range details {
			vs = append(vs, Violation{Check: check, Detail: d})
		}
	}
	if s := e.Engine; s.TimeoutsArmed != s.TimeoutsCancelled+s.TimeoutsFired || s.TimeoutsPending != 0 {
		add("timeout-ledger", []string{fmt.Sprintf("timeout ledger unbalanced: armed %d != cancelled %d + fired %d, %d pending",
			s.TimeoutsArmed, s.TimeoutsCancelled, s.TimeoutsFired, s.TimeoutsPending)})
	}
	for _, a := range e.Admission {
		add("bounded-queue", BoundedQueueViolations(a))
		add("admission-accounting", AdmissionAccountingViolations(a))
	}
	if n := len(e.Leaked); n > 0 {
		add("span-leak", []string{fmt.Sprintf("%d leaked span(s): %s", n, e.Leaked[0])})
	}
	return vs
}

// admissions snapshots every admission-controlled pool, in pool order.
func admissions(tb *core.Testbed) []TenantAdmission {
	var out []TenantAdmission
	for _, pl := range tb.Pools() {
		if a := pl.Admission; a != nil {
			out = append(out, TenantAdmission{Tenant: pl.Name, QueueCap: a.QueueCap(), Stats: a.Stats()})
		}
	}
	return out
}

// TenantAdmission is one pool's admission snapshot at drain.
type TenantAdmission struct {
	Tenant   string
	QueueCap int
	Stats    vfsapi.AdmissionStats
}

// BoundedQueueViolations checks that the pool's admission queue never
// exceeded its cap, the bound load shedding exists to enforce.
func BoundedQueueViolations(a TenantAdmission) []string {
	if a.Stats.MaxQueued <= a.QueueCap {
		return nil
	}
	return []string{fmt.Sprintf("pool %s: bounded queue violated: max queued %d > cap %d", a.Tenant, a.Stats.MaxQueued, a.QueueCap)}
}

// AdmissionAccountingViolations checks that every operation offered to
// the pool's admission controller is accounted exactly once — admitted
// (Admit counts an operation admitted when it is granted a slot, so an
// operation in flight is already among them), shed, or still queued —
// and that the drained pool holds none in flight or queued.
func AdmissionAccountingViolations(a TenantAdmission) []string {
	var v []string
	if s := a.Stats; s.Offered != s.Admitted+s.Shed+uint64(s.Queued) {
		v = append(v, fmt.Sprintf("pool %s: admission accounting violated: offered %d != admitted %d + shed %d + queued %d",
			a.Tenant, s.Offered, s.Admitted, s.Shed, s.Queued))
	}
	if a.Stats.InFlight != 0 || a.Stats.Queued != 0 {
		v = append(v, fmt.Sprintf("pool %s: drained with %d in flight, %d queued", a.Tenant, a.Stats.InFlight, a.Stats.Queued))
	}
	return v
}
