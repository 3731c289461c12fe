package trace

import (
	"time"

	"repro/internal/obs"
)

// Recorder captures the op stream of a live run. Attach it to the
// run's obs recorder before the workload starts; every operation
// completing at a traced facade (vfsapi.Traced) is captured with its
// reissue parameters. Snapshot assembles the canonical Trace once the
// engine has drained.
//
// The capture is an observation only: it schedules no engine events
// and reads no clock beyond what the span layer already read, so a
// recorded run is event-for-event identical to an unrecorded one.
type Recorder struct {
	label   string
	byProc  map[int64][]Op
	base    time.Duration
	total   int
	dropped uint64
	max     int
}

// NewRecorder creates a trace recorder. label names the recorded
// configuration (it is stored in the trace header). maxOps caps
// retained ops to bound memory on long runs; <= 0 means 4M.
func NewRecorder(label string, maxOps int) *Recorder {
	if maxOps <= 0 {
		maxOps = 4 << 20
	}
	return &Recorder{label: label, byProc: map[int64][]Op{}, max: maxOps}
}

// SetBase makes captured issue times relative to the given virtual
// time — typically the moment capture starts, after preparation
// traffic. A trace with a zero base carries absolute run times; replay
// re-anchors either kind at its own epoch.
func (r *Recorder) SetBase(t time.Duration) { r.base = t }

// Attach subscribes the recorder to rec's op stream. Call before the
// workload starts so the capture is complete; call the returned detach
// to stop capturing (e.g. before teardown traffic). Other subscribers
// of rec, another capture included, are unaffected either way.
func (r *Recorder) Attach(rec *obs.Recorder) (detach func()) {
	return rec.Subscribe(obs.Subscriber{Op: r.add})
}

func (r *Recorder) add(e obs.OpEvent) {
	if r.total >= r.max {
		r.dropped++
		return
	}
	id := int64(e.Proc)
	r.byProc[id] = append(r.byProc[id], Op{
		Tenant: e.Tenant, Kind: e.Op,
		Path: e.Path, Path2: e.Path2, Flags: e.Flags,
		Offset: e.Offset, Len: e.Len,
		Issue: e.Issue - r.base, Latency: e.Latency, Err: e.Err,
	})
	r.total++
}

// Count returns how many ops have been captured so far.
func (r *Recorder) Count() int { return r.total }

// Dropped returns how many ops were discarded over the cap.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Snapshot assembles the canonical trace from everything captured so
// far: one stream per originating process, stream ids densely
// renumbered in first-issue order, ops globally ordered by issue time.
func (r *Recorder) Snapshot() *Trace {
	return assemble(r.label, r.byProc)
}
