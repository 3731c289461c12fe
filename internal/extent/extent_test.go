package extent

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertMergesAdjacentAndOverlapping(t *testing.T) {
	var s Set
	if added := s.Insert(0, 10); added != 10 {
		t.Fatalf("added = %d", added)
	}
	if added := s.Insert(10, 10); added != 10 {
		t.Fatalf("adjacent added = %d", added)
	}
	if s.Count() != 1 {
		t.Fatalf("adjacent extents not merged: %v", s.Extents())
	}
	if added := s.Insert(5, 10); added != 0 {
		t.Fatalf("fully-covered insert added %d, want 0", added)
	}
	if added := s.Insert(15, 10); added != 5 {
		t.Fatalf("partial overlap added %d, want 5", added)
	}
	if s.Len() != 25 || s.Count() != 1 {
		t.Fatalf("set = %v len=%d", s.Extents(), s.Len())
	}
}

func TestInsertBridgesGap(t *testing.T) {
	var s Set
	s.Insert(0, 10)
	s.Insert(20, 10)
	if s.Count() != 2 {
		t.Fatalf("expected 2 disjoint extents")
	}
	s.Insert(8, 14) // covers [8,22): bridges both
	if s.Count() != 1 || s.Len() != 30 {
		t.Fatalf("bridge failed: %v", s.Extents())
	}
}

func TestRemoveSplits(t *testing.T) {
	var s Set
	s.Insert(0, 100)
	if removed := s.Remove(40, 20); removed != 20 {
		t.Fatalf("removed = %d", removed)
	}
	if s.Count() != 2 || s.Len() != 80 {
		t.Fatalf("split failed: %v", s.Extents())
	}
	if s.Contains(40, 1) || !s.Contains(0, 40) || !s.Contains(60, 40) {
		t.Fatalf("membership wrong after split: %v", s.Extents())
	}
}

func TestGaps(t *testing.T) {
	var s Set
	s.Insert(10, 10)
	s.Insert(30, 10)
	gaps := s.Gaps(0, 50)
	want := []Extent{{0, 10}, {20, 10}, {40, 10}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
	if g := s.Gaps(10, 10); g != nil {
		t.Fatalf("fully covered range has gaps: %v", g)
	}
}

func TestPopFirst(t *testing.T) {
	var s Set
	s.Insert(0, 10)
	s.Insert(20, 10)
	got := s.PopFirst(15)
	if len(got) != 2 || got[0] != (Extent{0, 10}) || got[1] != (Extent{20, 5}) {
		t.Fatalf("PopFirst = %v", got)
	}
	if s.Len() != 5 || !s.Contains(25, 5) {
		t.Fatalf("remainder wrong: %v", s.Extents())
	}
}

// bitmapModel is the naive reference implementation for property tests.
type bitmapModel [256]bool

func (m *bitmapModel) insert(off, n int64) int64 {
	var added int64
	for i := off; i < off+n && i < 256; i++ {
		if !m[i] {
			m[i] = true
			added++
		}
	}
	return added
}

func (m *bitmapModel) remove(off, n int64) int64 {
	var removed int64
	for i := off; i < off+n && i < 256; i++ {
		if m[i] {
			m[i] = false
			removed++
		}
	}
	return removed
}

func (m *bitmapModel) covered(off, n int64) int64 {
	var c int64
	for i := off; i < off+n && i < 256; i++ {
		if m[i] {
			c++
		}
	}
	return c
}

func (m *bitmapModel) total() int64 {
	var c int64
	for _, b := range m {
		if b {
			c++
		}
	}
	return c
}

// TestSetMatchesBitmapModel drives random operation sequences against
// both the extent set and a bitmap oracle.
func TestSetMatchesBitmapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		var m bitmapModel
		for step := 0; step < 200; step++ {
			off := rng.Int63n(200)
			n := rng.Int63n(56) + 1
			switch rng.Intn(3) {
			case 0:
				if s.Insert(off, n) != m.insert(off, n) {
					return false
				}
			case 1:
				if s.Remove(off, n) != m.remove(off, n) {
					return false
				}
			case 2:
				if s.Covered(off, n) != m.covered(off, n) {
					return false
				}
			}
			if s.Len() != m.total() {
				return false
			}
			// Invariant: extents sorted, disjoint, non-adjacent.
			prev := Extent{Off: -2, Len: 1}
			for _, e := range s.Extents() {
				if e.Len <= 0 || e.Off < prev.End() || e.Off == prev.End() {
					return false
				}
				prev = e
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGapsPlusCoveredIsComplete verifies gaps and covered partition any
// probe range.
func TestGapsPlusCoveredIsComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		for i := 0; i < 20; i++ {
			s.Insert(rng.Int63n(500), rng.Int63n(50)+1)
		}
		off := rng.Int63n(400)
		n := rng.Int63n(200) + 1
		var gapTotal int64
		prevEnd := off - 1
		for _, g := range s.Gaps(off, n) {
			if g.Len <= 0 || g.Off <= prevEnd-1 {
				return false
			}
			if s.Covered(g.Off, g.Len) != 0 {
				return false // gaps must be uncovered
			}
			gapTotal += g.Len
			prevEnd = g.End()
		}
		return gapTotal+s.Covered(off, n) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	var s Set
	if s.Insert(5, 0) != 0 || s.Insert(5, -3) != 0 {
		t.Fatal("zero/negative insert should add nothing")
	}
	if s.Remove(0, 0) != 0 {
		t.Fatal("zero remove should remove nothing")
	}
	if s.Covered(0, 0) != 0 || s.Contains(0, 0) != true {
		t.Fatal("empty probe: covered 0, contains vacuously true")
	}
}

func TestPopFirstEdgeCases(t *testing.T) {
	var s Set
	if got := s.PopFirst(100); got != nil {
		t.Fatalf("pop from empty = %v", got)
	}
	s.Insert(10, 5)
	if got := s.PopFirst(0); got != nil {
		t.Fatalf("pop zero = %v", got)
	}
	got := s.PopFirst(100)
	if len(got) != 1 || got[0] != (Extent{10, 5}) {
		t.Fatalf("pop all = %v", got)
	}
	if s.Len() != 0 || s.Count() != 0 {
		t.Fatalf("set not drained: %v", s.Extents())
	}
}

func TestClear(t *testing.T) {
	var s Set
	s.Insert(0, 100)
	s.Insert(200, 50)
	s.Clear()
	if s.Len() != 0 || s.Count() != 0 {
		t.Fatal("clear failed")
	}
	s.Insert(5, 5)
	if s.Len() != 5 {
		t.Fatal("set unusable after clear")
	}
}

// TestFirstGapAndCoveredMatchReference checks the binary-searched
// lookups on random sets: FirstGap must equal the first element of
// Gaps (and report no gap exactly when Gaps is empty), and Covered must
// match the bitmap oracle, for probes that start before, inside,
// between and after the extents, including empty probes.
func TestFirstGapAndCoveredMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		var m bitmapModel
		for step := 0; step < 100; step++ {
			off, n := rng.Int63n(200), rng.Int63n(56)+1
			if rng.Intn(3) == 0 {
				s.Remove(off, n)
				m.remove(off, n)
			} else {
				s.Insert(off, n)
				m.insert(off, n)
			}
			for probe := 0; probe < 8; probe++ {
				off, n := rng.Int63n(200), rng.Int63n(57)
				gaps := s.Gaps(off, n)
				g, ok := s.FirstGap(off, n)
				if ok != (len(gaps) > 0) || ok && g != gaps[0] {
					t.Logf("FirstGap(%d,%d) = %v,%v; Gaps = %v; set %v", off, n, g, ok, gaps, s.Extents())
					return false
				}
				if c := s.Covered(off, n); c != m.covered(off, n) {
					t.Logf("Covered(%d,%d) = %d, want %d; set %v", off, n, c, m.covered(off, n), s.Extents())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
