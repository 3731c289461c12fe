package experiments

import (
	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// BlameSweepCases returns the swept scenarios, Fig 1 interference
// cases the blame engine exists to explain: the kernel client alone,
// the kernel client with the RandomIO lock-stress neighbour (where
// flusher core theft and i_mutex/lru_lock interference appear), and
// Danaus under the same pressure for contrast.
func BlameSweepCases() []InterferenceCase {
	return []InterferenceCase{
		{Config: core.ConfigK, FLSCount: 2},
		{Config: core.ConfigK, FLSCount: 2, Neighbor: "RND"},
		{Config: core.ConfigD, FLSCount: 2, Neighbor: "RND"},
	}
}

// RunBlameSweep executes one blame-sweep case, the interference run of
// RunInterference, with its own recorder (independent of the danausbench
// -trace hook) and returns the blame analysis of the full run plus the
// recording itself, for artifact export and leak/determinism checks. A
// non-nil WhatIf re-runs the scenario under the modified cost model:
// parameter knobs rewrite the testbed's Params before construction,
// and flusher pinning confines the kernel writeback threads to the
// Fileserver pools' own cores so they cannot steal the neighbour's
// reservation.
func RunBlameSweep(c InterferenceCase, scale Scale, w *blame.WhatIf) (blame.Report, *obs.Recorder) {
	// The private recorder's SampleInterval stays zero: it adds no
	// engine events, so the schedule is event-for-event the unobserved
	// one.
	s := interferenceSpec(c, scale)
	s.Private = true
	label := c.Label()
	if w != nil {
		s.Params = scale.Params()
		w.Apply(s.Params)
		if w.Spec != "" {
			label += " [" + w.Spec + "]"
		}
	}
	tb, conts := s.Testbed()
	if w != nil && w.FlusherPinned {
		tb.Kernel.SetFlusherMask(cpu.MaskRange(0, 2*c.FLSCount))
	}
	runInterference(c, scale, tb, conts)
	return blame.Analyze(label, tb.Obs), tb.Obs
}
