package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// HarnessSection returns the lines danausbench printed for experiment
// exp in a harness output file such as harness_quick.txt: everything
// between the "=== <exp> " header and the "--- <exp> done in" timing
// line, both excluded. It is exported for the external test package,
// which checks the fuzzsweep section.
func HarnessSection(path, exp string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := string(data)
	i := strings.Index(s, "=== "+exp+" ")
	j := strings.Index(s, "\n--- "+exp+" done in")
	if i < 0 || j < i {
		return nil, fmt.Errorf("%s: no complete %s section", path, exp)
	}
	return strings.Split(s[i:j], "\n")[1:], nil
}

// harnessRows returns the rows of an experiment's section of
// harness_quick.txt, the committed output of `danausbench -exp all
// -scale quick` and the behaviour contract of every quick-scale run:
// the section without its title line.
func harnessRows(t *testing.T, exp string) []string {
	t.Helper()
	lines, err := HarnessSection("../../harness_quick.txt", exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("%s section has no rows", exp)
	}
	return lines[1:]
}

// checkHarnessRows requires got to equal the section's rows line for
// line, the way danausbench renders them ("  " + row).
func checkHarnessRows(t *testing.T, exp string, got []string) {
	t.Helper()
	want := harnessRows(t, exp)
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, harness_quick.txt has %d", exp, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s row %d drifted from harness_quick.txt:\n  got  %q\n  want %q", exp, i, got[i], want[i])
		}
	}
}

// checkHarnessRow requires one rendered row to equal row i of the
// experiment's section.
func checkHarnessRow(t *testing.T, exp string, i int, row string) {
	t.Helper()
	want := harnessRows(t, exp)
	if i >= len(want) {
		t.Fatalf("%s: harness_quick.txt has no row %d", exp, i)
	}
	if got := "  " + row; got != want[i] {
		t.Errorf("%s row %d drifted from harness_quick.txt:\n  got  %q\n  want %q", exp, i, got, want[i])
	}
}
