package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measure re-executes itself to run a workload.
func TestMain(m *testing.M) {
	if os.Getenv(envChild) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(res result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	return names
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// TestSmoke runs every workload at tiny size through the same parent
// and child code as the benchmark, untraced and traced, and checks the
// result line against the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			res, err := measure(w, defaultSeed, 0, traced, tiny, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := metricNames(res); !sameNames(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			for name, m := range res.Metrics {
				// Only the tracing overhead may come out negative, from noise.
				if m.Value < 0 && name != "trace.overhead_pct" {
					t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
				}
			}
			if !traced {
				if v := res.Metrics["op_success_pct"].Value; v != 100 {
					t.Errorf("%s: op_success_pct = %v, want 100", w.name, v)
				}
				continue
			}
			events := res.Metrics["sim.events"].Value
			if events == 0 || res.Metrics["sim.callbacks"].Value+res.Metrics["sim.resumes"].Value > events {
				t.Errorf("%s: events %v, callbacks %v, resumes %v", w.name, events,
					res.Metrics["sim.callbacks"].Value, res.Metrics["sim.resumes"].Value)
			}
		}
	}
}

// TestFailingChild runs a workload whose child process exits with an
// error, and checks that the run is reported as incorrect with every
// operation failed: op_success_pct reads 0 instead of being left out.
func TestFailingChild(t *testing.T) {
	missing := workload{name: "no-such-workload"}
	for _, traced := range []bool{false, true} {
		res, err := measure(missing, defaultSeed, 0, traced, tiny, io.Discard)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		m, ok := res.Metrics["op_success_pct"]
		switch {
		case traced && ok:
			t.Errorf("traced run reports op_success_pct")
		case !traced && (!ok || m.Value != 0):
			t.Errorf("op_success_pct = %v (present %v), want 0", m.Value, ok)
		}
	}
}

// TestKernOverloadMatchesOverloadSweep checks that the rebuilt
// kern-overload runner is the overload sweep's case at the default
// seed, and that the seed reaches the arrival process.
func TestKernOverloadMatchesOverloadSweep(t *testing.T) {
	noHook := func(*core.Testbed) {}
	want := rowString(experiments.RunOverloadCase(kernOverloadCase, tiny.scale))
	got := kernOverload(defaultSeed, tiny, noHook)
	if got.row != want {
		t.Fatalf("kern-overload at the default seed:\n got  %s\n want %s", got.row, want)
	}
	if len(got.problems) > 0 || got.failed != 0 {
		t.Fatalf("kern-overload: problems %v, failed %d", got.problems, got.failed)
	}
	other := kernOverload(7, tiny, noHook)
	if other.row == got.row {
		t.Fatal("kern-overload printed the same row at seeds 7 and 42; the seed does not reach the arrivals")
	}
	if len(other.problems) > 0 {
		t.Fatalf("kern-overload seed 7: %v", other.problems)
	}
}

func TestCheckRows(t *testing.T) {
	fuse, _ := workloadNamed("fuse-seqread")
	kernW, _ := workloadNamed("kern-overload")
	ref := map[string]string{"tiny fuse-seqread": "A", "tiny kern-overload": "K"}
	reps := func(rows ...string) []report {
		var rs []report
		for _, r := range rows {
			rs = append(rs, report{Row: r})
		}
		return rs
	}
	cases := []struct {
		name     string
		w        workload
		seed     int64
		rows     []report
		problems int
	}{
		{"matching rows", fuse, defaultSeed, reps("A", "A"), 0},
		{"unseeded workload checked at any seed", fuse, 7, reps("B"), 1},
		{"runs disagree", fuse, defaultSeed, reps("A", "B"), 1},
		{"seeded workload at another seed", kernW, 7, reps("X", "X"), 0},
		{"seeded workload at the default seed", kernW, defaultSeed, reps("X"), 1},
	}
	for _, c := range cases {
		if got := checkRows(c.w, c.seed, tiny, ref, c.rows); len(got) != c.problems {
			t.Errorf("%s: problems %q, want %d", c.name, got, c.problems)
		}
	}
	if got := checkRows(fuse, defaultSeed, quick, ref, reps("A")); len(got) != 1 {
		t.Errorf("missing reference: problems %q, want 1", got)
	}
}

func TestReferenceCoversEveryWorkload(t *testing.T) {
	ref, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range []size{quick, tiny} {
		for _, w := range workloadList {
			if _, ok := ref[referenceKey(sz, w)]; !ok {
				t.Errorf("reference.txt has no row for %s", referenceKey(sz, w))
			}
		}
	}
}
