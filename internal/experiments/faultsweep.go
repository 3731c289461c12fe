package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// FaultSweepCase is one point of the fault-sweep family: a client
// configuration and replication level driven through a deterministic
// fault schedule while a victim and a bystander tenant run side by
// side.
type FaultSweepCase struct {
	Label       string
	Config      core.Configuration
	Replication int
	// Schedule is a faults.Parse schedule with times relative to the
	// start of the measurement window. The token "@wal" is replaced by
	// the OSD index holding the victim WAL's first object, so the crash
	// always lands on data the victim owns.
	Schedule string
}

// FaultSweepRow is the outcome of one fault-sweep case.
type FaultSweepRow struct {
	Label       string
	Config      core.Configuration
	Replication int

	// Victim probes: a fsync-per-append WAL writer and a cold
	// sequential reader forced to the backend by cache pressure.
	VictimWriteMBps float64
	VictimReadMBps  float64
	// BystanderMBps is the cache-resident reader in the second pool,
	// measuring collateral damage of the victim's faults.
	BystanderMBps float64
	VictimOps     uint64
	VictimErrors  uint64

	// RecoveryTime is the time from the first fault arming until the
	// first victim operation that completed *through* the fault path
	// (its success coincided with a retry or failover), i.e. how long
	// until the client demonstrably worked around the fault. Zero when
	// no fault was scheduled or no operation needed the fault path.
	RecoveryTime time.Duration

	// Fault-handling counters summed over the victim's client.
	Faults metrics.FaultCounters

	// DataLossBytes is acknowledged-but-unrecoverable WAL bytes:
	// fsync-acked size minus what the cluster can reconstruct from live
	// objects and backfill logs. Must be zero at replication >= 2.
	DataLossBytes int64
}

// FaultSweepCases returns the harness sweep: a no-fault baseline, the
// combined crash+spike+stall schedule against the user-level and the
// kernel client at replication 2, and an unreplicated long crash that
// exercises the bounded-retry error path.
func FaultSweepCases(scale Scale) []FaultSweepCase {
	span := func(a, b float64) string {
		return fmt.Sprintf("%v-%v", scale.frac(a), scale.frac(b))
	}
	combined := fmt.Sprintf("osd-crash:@wal:%s;net-spike:client:500us:%s;mds-stall:%s",
		span(0.25, 0.6), span(0.4, 0.7), span(0.5, 0.55))
	long := fmt.Sprintf("osd-crash:@wal:%s", span(0.25, 0.85))
	return []FaultSweepCase{
		{Label: "baseline", Config: core.ConfigD, Replication: 2, Schedule: ""},
		{Label: "crash+spike+stall", Config: core.ConfigD, Replication: 2, Schedule: combined},
		{Label: "crash+spike+stall", Config: core.ConfigK, Replication: 2, Schedule: combined},
		{Label: "long-crash", Config: core.ConfigD, Replication: 1, Schedule: long},
	}
}

// faultSpec is one fault-sweep case as a scenario: victim pool 0 runs
// the WAL writer and the cold reader, bystander pool 1 a cached reader,
// and the schedule is installed relative to the measurement window.
func faultSpec(c FaultSweepCase, scale Scale) Scenario {
	// The cold file overflows the victim's cache so reads keep hitting
	// the backend; the bystander file fits comfortably.
	coldSize := scale.PoolMem() + scale.PoolMem()/2
	const warmSize = 16 << 20
	const walOp = 64 << 10
	return Scenario{
		Scale: scale, Cores: 4, Replication: c.Replication,
		Pools: []PoolSpec{
			{Name: "fls0", Config: c.Config, Prep: "prep0", Files: []File{{"/wal", 0, walOp}, {"/cold", coldSize, 1 << 20}}},
			{Name: "fls1", Config: c.Config, Prep: "prep1", Files: []File{{"/warm", warmSize, warmSize}}},
		},
		Schedule: c.Schedule,
		Probes: []Probe{
			{Kind: WALProbe, Pool: 0, Path: "/wal", Chunk: walOp},
			{Kind: SeqProbe, Name: "cold-reader", Pool: 0, Path: "/cold", Size: coldSize, Chunk: 256 << 10},
			{Kind: SeqProbe, Name: "bystander", Pool: 1, Path: "/warm", Size: warmSize, Chunk: 128 << 10},
		},
	}
}

// RunFaultSweep executes one fault-sweep case.
func RunFaultSweep(c FaultSweepCase, scale Scale) FaultSweepRow {
	run := RunScenario(faultSpec(c, scale))
	window := run.Clock.Window()
	writer, reader, warm := run.Stats[0], run.Stats[1], run.Stats[2]
	row := FaultSweepRow{
		Label: c.Label, Config: c.Config, Replication: c.Replication,
		VictimWriteMBps: writer.ThroughputMBps(window),
		VictimReadMBps:  reader.ThroughputMBps(window),
		BystanderMBps:   warm.ThroughputMBps(window),
		VictimOps:       writer.Ops.Ops + reader.Ops.Ops,
		VictimErrors:    writer.Errors + reader.Errors,
		RecoveryTime:    run.Recovery,
		Faults:          run.Faults,
	}
	if loss := run.Acked - run.Stored; loss > 0 {
		row.DataLossBytes = loss
	}
	return row
}

// FaultRowViolations checks the standing faultsweep invariant on one
// row: no acknowledged data may be lost while the cluster holds a
// surviving replica.
func FaultRowViolations(r FaultSweepRow) []string {
	if r.Replication >= 2 && r.DataLossBytes > 0 {
		return []string{fmt.Sprintf("faultsweep %s %s r=%d: zero-data-loss violated: %d acked bytes unrecoverable",
			r.Config, r.Label, r.Replication, r.DataLossBytes)}
	}
	return nil
}

// String renders a row for the harness.
func (r FaultSweepRow) String() string {
	return fmt.Sprintf("%-4s r=%d %-17s wal %6.1f MB/s read %6.1f MB/s byst %6.1f MB/s  ops=%-5d err=%-3d recover=%-10v retries=%-4d failovers=%-4d misses=%-3d degraded=%-10v loss=%d",
		r.Config, r.Replication, r.Label,
		r.VictimWriteMBps, r.VictimReadMBps, r.BystanderMBps,
		r.VictimOps, r.VictimErrors, r.RecoveryTime,
		r.Faults.Retries, r.Faults.Failovers, r.Faults.DeadlineMisses,
		r.Faults.TimeDegraded, r.DataLossBytes)
}
