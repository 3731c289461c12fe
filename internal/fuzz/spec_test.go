package fuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// TestScenarioCompilesToRunnerSpec pins the runner spec a fuzz
// scenario compiles to: pool names and cores, the victim's preparation
// files and probes, and one pool per co-tenant with its workload,
// dataset and RNG stream. Any drift changes the engine schedule and
// with it the fuzz digests. The solo baseline keeps the host size and
// drops the tenant pools.
func TestScenarioCompilesToRunnerSpec(t *testing.T) {
	sc := Scenario{
		Seed: 7, Config: core.ConfigK, Replication: 3, SharedMount: true,
		Factor: 0.01, CacheFrac: 4, Warmup: 10 * time.Millisecond, Duration: 60 * time.Millisecond,
		Schedule:    "osd-crash:@wal:6ms-12ms",
		Tenants:     []Tenant{{Workload: "randio", Threads: 2}, {Workload: "kvput", Threads: 1}},
		OfferedLoad: 500, AdmitQueue: 8, Crash: "host-crash:20ms-30ms", TraceReplay: true,
	}
	const poolMem = 128 << 20 // the floor: 0.01 x 8 GiB is below it
	const cold = poolMem * 3 / 2
	s := sc.spec(true)
	if s.Cores != 6 || s.Replication != 3 || !s.Private || s.Capture != "K" ||
		s.Overload == nil || s.Overload.QueueCap != 8 || s.Overload.RetrySeed != 7 {
		t.Fatalf("testbed fields: %+v", s)
	}
	if s.Schedule != "osd-crash:@wal:6ms-12ms;host-crash:20ms-30ms" {
		t.Errorf("schedule %q", s.Schedule)
	}
	wantPools := []experiments.PoolSpec{
		{Name: "victim", Config: core.ConfigK, CacheBytes: poolMem / 4, Clone: true, Prep: "prep-victim",
			Files: []experiments.File{{Path: "/wal", Chunk: 64 << 10}, {Path: "/cold", Size: cold, Chunk: 1 << 20}}},
		{Name: "t0", Config: core.ConfigK, CacheBytes: poolMem / 4, Prep: "prep-t0",
			Tenant: &experiments.TenantLoad{Workload: "randio", Dir: "/rnd0", Threads: 2, Seed: workloads.StreamSeed(7, "randio", 0)}},
		{Name: "t1", Config: core.ConfigK, CacheBytes: poolMem / 4, Prep: "prep-t1",
			Tenant: &experiments.TenantLoad{Workload: "kvput", Dir: "/kv", Threads: 1, Seed: workloads.StreamSeed(7, "kvput", 1)}},
	}
	if !reflect.DeepEqual(s.Pools, wantPools) {
		t.Errorf("pools:\n  %+v\nwant\n  %+v", s.Pools, wantPools)
	}
	wantProbes := []experiments.Probe{
		{Kind: experiments.WALProbe, Path: "/wal", Chunk: 64 << 10},
		{Kind: experiments.SeqProbe, Name: "cold-reader", Path: "/cold", Size: cold, Chunk: 256 << 10},
		{Kind: experiments.OpenProbe, Path: "/cold", Size: cold, Chunk: 256 << 10, Rate: 500, Seed: workloads.StreamSeed(7, "openloop", 0)},
	}
	if !reflect.DeepEqual(s.Probes, wantProbes) {
		t.Errorf("probes:\n  %+v\nwant\n  %+v", s.Probes, wantProbes)
	}
	solo := sc.spec(false)
	if solo.Cores != 6 || len(solo.Pools) != 1 || !reflect.DeepEqual(solo.Pools[0], wantPools[0]) {
		t.Errorf("solo baseline: cores %d, pools %+v", solo.Cores, solo.Pools)
	}
}

// TestFuzzSideSharedChecks: the fuzzer's bounded-queue,
// admission-accounting and crash-consistency checkers report exactly
// the overload and crash sweeps' shared checks, labelled with the run:
// the first two as the drain checks found them.
func TestFuzzSideSharedChecks(t *testing.T) {
	o := crashedOutcome()
	o.Full.Admission[0].Stats.MaxQueued = o.Full.Admission[0].QueueCap + 1
	o.Replay.Admission[0].Stats.Shed--
	o.Solo.CrashRecovered = 0
	redrain(o)
	a := o.Full.Admission[0]
	if got, want := drainCheck("bounded-queue")(o), prefixed("full", experiments.BoundedQueueViolations(a)); !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Errorf("bounded-queue: %q, want %q", got, want)
	}
	a = o.Replay.Admission[0]
	if got, want := drainCheck("admission-accounting")(o), prefixed("replay", experiments.AdmissionAccountingViolations(a)); !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Errorf("admission-accounting: %q, want %q", got, want)
	}
	e := experiments.CrashEvidence{Events: 1, Affected: 1, Acked: o.Solo.AckedBytes, Remount: o.Solo.RemountSize}
	got := checkCrashConsistency(o)
	if want := prefixed("solo", experiments.CrashViolations(e)); !reflect.DeepEqual(got, want) || len(got) != 1 ||
		!strings.Contains(got[0], "recovery never completed") {
		t.Errorf("crash-consistency: %q, want %q", got, want)
	}
}

func prefixed(label string, details []string) []string {
	out := make([]string, len(details))
	for i, d := range details {
		out[i] = fmt.Sprintf("%s: %s", label, d)
	}
	return out
}
