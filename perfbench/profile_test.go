package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.eventHeap.down", "repro/internal/sim.(*Engine).pop"}, "sim"},
		{[]string{"repro/internal/fusefs.(*Transport).crossing", "repro/internal/fusefs.(*Transport).Read"}, "fusefs"},
		{[]string{"repro/internal/cephclient.(*Client).flush.func1"}, "cephclient"},
		{[]string{"repro/internal/extent.(*Set).Gaps", "repro/internal/kern.(*Mount).read"}, "extent"},
		// A runtime leaf under a channel operation is a goroutine hand-off.
		{[]string{"runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Proc).park"}, layerSched},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, layerSched},
		{[]string{"gogo"}, layerSched},
		// GC work is GC wherever it runs, even inside a channel operation.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.findObject", "runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.chansend"}, layerGC},
		// Allocation outside GC, and packages without a layer, are other.
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/kern.(*Mount).read"}, layerOther},
		{[]string{"fmt.Sprintf", "repro/internal/core.(*Pool).Mount"}, layerOther},
		{[]string{"repro/internal/core.NewTestbed"}, layerOther},
		{[]string{"container/list.(*List).move", "repro/internal/cpu.(*CPU).release"}, layerOther},
		{nil, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAttributeSyntheticSamples(t *testing.T) {
	samples := []sample{
		{[]string{"repro/internal/sim.eventHeap.up", "repro/internal/sim.(*Engine).push"}, 30},
		{[]string{"repro/internal/sim.(*Proc).park"}, 10},
		{[]string{"runtime.chanrecv", "repro/internal/sim.(*Proc).park"}, 40},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, 5},
		{[]string{"repro/internal/kern.(*Mount).read"}, 10},
		{[]string{"sort.Ints"}, 5},
	}
	got := attribute(samples)
	want := map[string]float64{
		"sim": 40, simHeap: 30, layerSched: 40, layerGC: 5, "kern": 10, layerOther: 5,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, got[layer], w)
		}
	}
	var sum float64
	for layer, v := range got {
		if layer != simHeap {
			sum += v
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
	for _, l := range append(modelLayers, layerSched, layerGC, layerOther, simHeap) {
		if _, ok := got[l]; !ok {
			t.Errorf("layer %s missing from the split", l)
		}
	}
}

func TestAttributeNoSamples(t *testing.T) {
	for layer, v := range attribute(nil) {
		if v != 0 {
			t.Errorf("share of %s with no samples = %v, want 0", layer, v)
		}
	}
}

// TestParseProfile decodes a real CPU profile of a busy loop: the loop
// function must appear among the samples' stacks.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		spin()
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with non-positive weight %d: %v", s.value, s.stack)
		}
		for _, fn := range s.stack {
			if fn == "repro/perfbench.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample of %d has repro/perfbench.spin on its stack", len(samples))
	}
}

var spinSink uint64

//go:noinline
func spin() {
	for i := 0; i < 100000; i++ {
		spinSink = spinSink*31 + uint64(i)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parseProfile accepted garbage")
	}
}
