package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fuzz"
)

// The harness's fuzzsweep family (10 scenarios, seed 1 at quick scale)
// must reproduce its section of harness_quick.txt line for line,
// artifact hashes and sweep-hash included. It lives in the external
// test package because fuzz imports experiments.
func TestFuzzSweepMatchesHarness(t *testing.T) {
	lines, err := experiments.HarnessSection("../../harness_quick.txt", "fuzzsweep")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fuzz.Sweep(fuzz.Options{N: 10, Seed: 1, Out: &buf}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// The section opens with danausbench's title line.
	want := strings.Join(lines[1:], "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("fuzz sweep drifted from harness_quick.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}
