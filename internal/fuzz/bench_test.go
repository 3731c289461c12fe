package fuzz

import (
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkFuzzScenarioRun anchors the cost of one fuzz pipeline run
// (testbed build, victim probe, invariant evidence collection) for the
// CI bench-guard: a sweep is N of these, so a hot-path regression here
// multiplies directly into the CI fuzz smoke run's wall time.
func BenchmarkFuzzScenarioRun(b *testing.B) {
	sc := Scenario{
		Seed:        1,
		Config:      core.ConfigK,
		Replication: 2,
		Factor:      0.01,
		CacheFrac:   2,
		Warmup:      10 * time.Millisecond,
		Duration:    30 * time.Millisecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunScenario(sc, false)
	}
}
