package main

import (
	"fmt"
	"sort"
)

// summary is the median and quartiles of a set of measurements, and
// the spread between the quartiles as a share of the median.
type summary struct {
	N          int
	Q1, Median float64
	Q3         float64
}

// Spread returns (Q3-Q1)/Median, the steadiness figure of a metric.
func (s summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d median=%.6g q1=%.6g q3=%.6g spread=%.2f%%",
		s.N, s.Median, s.Q1, s.Q3, 100*s.Spread())
}

// summarize computes the median and the quartiles of xs. Quartiles use
// the exclusive method (the default of Python's statistics.quantiles),
// so they match what a reader computes from the same values there. A
// single value is its own median and quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{N: len(d), Median: median(d)}
	if len(d) == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// median returns the middle of xs (the mean of the middle two for an
// even count). xs must be sorted and non-empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf returns the median of unsorted xs, 0 when empty.
func medianOf(xs []float64) float64 {
	return summarize(xs).Median
}
