package main

import (
	"math"
	"testing"
)

// The expected quartiles are those of Python's
// statistics.quantiles(values, n=4), the figures the steadiness check
// is defined by.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		in               []float64
		q1, median, q3   float64
		wantSpreadAbove0 bool
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, true},
		{[]float64{3, 1, 2}, 1, 2, 3, true},
		{[]float64{2, 1}, 0.75, 1.5, 2.25, true},
		{[]float64{5, 1.5, 9.25, 4, 7.5}, 2.75, 5, 8.375, true},
		{[]float64{4, 4, 4, 4}, 4, 4, 4, false},
		{[]float64{7}, 7, 7, 7, false},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.N != len(c.in) || !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = %v, want q1=%v median=%v q3=%v", c.in, s, c.q1, c.median, c.q3)
		}
		if want := (c.q3 - c.q1) / c.median; !near(s.Spread(), want) || (s.Spread() > 0) != c.wantSpreadAbove0 {
			t.Errorf("summarize(%v).Spread() = %v, want %v", c.in, s.Spread(), want)
		}
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("summarize reordered its input: %v", in)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := summarize(nil); s.N != 0 || s.Median != 0 || s.Spread() != 0 {
		t.Fatalf("summarize(nil) = %v, want zero", s)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
