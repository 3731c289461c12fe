package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// CrashSweepCase is one point of the crash-sweep family: a client
// architecture whose client-side component is killed mid-measurement
// and restarted, while a victim and a bystander tenant run side by
// side. The sweep is the paper's containment argument as an
// experiment: a Danaus libservice crash is one tenant's problem, a
// FUSE daemon crash takes its tenant's whole mount, a kernel-client
// crash takes the host.
type CrashSweepCase struct {
	Label       string
	Config      core.Configuration
	Replication int
	// Kind selects which component dies (DanausCrash, FUSECrash or
	// HostCrash); the victim pool is always the target for the
	// tenant-scoped kinds.
	Kind faults.Kind
}

// CrashSweepRow is the outcome of one crash-sweep case.
type CrashSweepRow struct {
	Label       string
	Config      core.Configuration
	Replication int
	Kind        faults.Kind

	// Victim probes: a fsync-per-append WAL writer plus a sequential
	// reader in the crashed pool.
	VictimWriteMBps float64
	VictimErrors    uint64
	// Bystander: a cache-resident reader in the second pool. Its error
	// count is the blast-radius proof — zero for the tenant-scoped
	// crash kinds, non-zero when the whole host goes down.
	BystanderMBps   float64
	BystanderErrors uint64

	// AffectedTenants is the blast radius recorded by the crash domain
	// (pools whose service was interrupted).
	AffectedTenants int
	// QueueShed counts admission waiters evicted at crash time.
	QueueShed int

	// RecoveryTime is the recovery protocol's duration: scheduled
	// restart until MDS sessions are reclaimed and mounts are back.
	RecoveryTime time.Duration
	// VictimRepair is end-to-end repair as the victim saw it: crash
	// instant until its first operation completed again.
	VictimRepair time.Duration

	// DurabilityViolation is acked-but-lost WAL bytes observed through
	// a fresh post-recovery handle: fsync-acknowledged size minus the
	// remounted file size, when positive. The contract is zero — a
	// crash may discard un-synced appends, never acknowledged ones.
	DurabilityViolation int64

	// Crash is the evidence the shared crash checks judge.
	Crash CrashEvidence
}

// CrashSweepCases returns the harness sweep: for each of the three
// architectures, its native crash kind at replication 2, with the
// outage spanning 30-50% of the measurement window.
func CrashSweepCases() []CrashSweepCase {
	return []CrashSweepCase{
		{Label: "danaus-crash", Config: core.ConfigD, Replication: 2, Kind: faults.DanausCrash},
		{Label: "fuse-crash", Config: core.ConfigF, Replication: 2, Kind: faults.FUSECrash},
		{Label: "host-crash", Config: core.ConfigK, Replication: 2, Kind: faults.HostCrash},
	}
}

// crashSchedule crashes kind's component in the victim pool (the whole
// host for HostCrash) from fraction from to fraction to of the
// measurement window.
func crashSchedule(kind faults.Kind, scale Scale, from, to float64) string {
	w := faults.Window{Kind: kind, Tenant: "fls0", Start: scale.frac(from), End: scale.frac(to)}
	return w.String()
}

// crashSpec is one crash-sweep case as a scenario: victim pool 0 runs a
// WAL writer that reopens its handle after the crash invalidates it,
// bystander pool 1 reads a warm file, and the crash window spans 30-50%
// of the measurement window.
func crashSpec(c CrashSweepCase, scale Scale) Scenario {
	const walOp = 64 << 10
	const warmSize = 16 << 20
	return Scenario{
		Scale: scale, Cores: 4, Replication: c.Replication,
		Pools: []PoolSpec{
			{Name: "fls0", Config: c.Config, Prep: "prep0", Files: []File{{"/wal", 0, walOp}}},
			{Name: "fls1", Config: c.Config, Prep: "prep1", Files: []File{{"/warm", warmSize, warmSize}}},
		},
		Schedule: crashSchedule(c.Kind, scale, 0.3, 0.5),
		Probes: []Probe{
			{Kind: WALProbe, Pool: 0, Path: "/wal", Chunk: walOp},
			{Kind: SeqProbe, Name: "bystander", Pool: 1, Path: "/warm", Size: warmSize, Chunk: 128 << 10},
		},
	}
}

// RunCrashSweep executes one crash-sweep case.
func RunCrashSweep(c CrashSweepCase, scale Scale) CrashSweepRow {
	run := RunScenario(crashSpec(c, scale))
	window := run.Clock.Window()
	writer, warm := run.Stats[0], run.Stats[1]
	row := CrashSweepRow{
		Label: c.Label, Config: c.Config, Replication: c.Replication, Kind: c.Kind,
		VictimWriteMBps: writer.ThroughputMBps(window),
		VictimErrors:    writer.Errors,
		BystanderMBps:   warm.ThroughputMBps(window),
		BystanderErrors: warm.Errors,
		VictimRepair:    run.Repair,
		Crash:           run.Crash(),
	}
	if loss := run.Acked - run.Remount; loss > 0 {
		row.DurabilityViolation = loss
	}
	for _, ev := range run.CrashLog {
		row.AffectedTenants += len(ev.Affected)
		row.QueueShed += ev.QueueShed
		if ev.Recovered {
			row.RecoveryTime += ev.RecoveryTime()
		}
	}
	return row
}

// CrashRowViolations checks the crash-sweep invariants on one row: the
// crash checks every scheduled client crash passes (CrashViolations:
// recovery completed, no fsync-acknowledged byte lost), that the crash
// window had an effect, and the paper's blast-radius claim — a Danaus
// libservice or FUSE daemon crash is one tenant's problem while a
// kernel-client crash interrupts every pool on the host. It returns
// human-readable violation descriptions (empty = clean).
func CrashRowViolations(r CrashSweepRow) []string {
	tag := fmt.Sprintf("crashsweep %s %s: ", r.Config, r.Label)
	var v []string
	for _, d := range CrashViolations(r.Crash) {
		v = append(v, tag+d)
	}
	if r.VictimErrors == 0 {
		v = append(v, tag+"crash window had no effect: victim saw zero errors")
	}
	switch r.Kind {
	case faults.DanausCrash, faults.FUSECrash:
		if r.AffectedTenants != 1 {
			v = append(v, fmt.Sprintf("%sblast radius violated: %d tenants affected, want 1", tag, r.AffectedTenants))
		}
		if r.BystanderErrors != 0 {
			v = append(v, fmt.Sprintf("%scontainment violated: bystander saw %d errors", tag, r.BystanderErrors))
		}
	case faults.HostCrash:
		if r.AffectedTenants != 2 {
			v = append(v, fmt.Sprintf("%sblast radius violated: %d tenants affected, want 2 (whole host)", tag, r.AffectedTenants))
		}
		if r.BystanderErrors == 0 {
			v = append(v, tag+"host crash did not interrupt the bystander")
		}
	}
	return v
}

// String renders a row for the harness.
func (r CrashSweepRow) String() string {
	return fmt.Sprintf("%-4s r=%d %-13s wal %6.1f MB/s err=%-4d byst %6.1f MB/s err=%-4d affected=%d shed=%-3d recover=%-10v repair=%-10v loss=%d",
		r.Config, r.Replication, r.Label,
		r.VictimWriteMBps, r.VictimErrors,
		r.BystanderMBps, r.BystanderErrors,
		r.AffectedTenants, r.QueueShed,
		r.RecoveryTime, r.VictimRepair, r.DurabilityViolation)
}
