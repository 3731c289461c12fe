package workloads

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// The isolation sweeps measure a victim tenant next to an aggressor or
// a fault with two closed-loop probes: WALWriter (fsync-per-append
// durability) and SeqReader (sequential chunked reads, cold or warm).
// Both share one per-op policy: an op that fails sleeps 1 ms before the
// next, errors count only while clock.Measuring(), and a nil Stats
// records nothing.

// OpHook is per-op bookkeeping attached to a probe: it is called
// before each op and may return a completion callback, which receives
// the virtual time the op finished and its error.
type OpHook func() func(now time.Duration, err error)

// WALWriter appends OpSize bytes to an existing file and fsyncs after
// every append, closed loop on one thread until the clock expires.
type WALWriter struct {
	FS        vfsapi.FileSystem
	Path      string
	OpSize    int64
	NewThread func() *cpu.Thread
	// Reopen replaces the handle after every failed op. A client crash
	// invalidates open handles for good; the reopened file's size
	// discounts whatever appends the crash discarded.
	Reopen bool
	OnOp   OpHook
	Stats  *Stats

	// Acked is the fsync-acknowledged frontier: a successful fsync
	// drains every dirty extent, so all bytes appended up to it are
	// durable.
	Acked int64
}

// Run starts the writer thread.
func (w *WALWriter) Run(g *Group, clock Clock) {
	g.Go("wal-writer", func(p *sim.Proc) {
		ctx := ctxFor(p, w.NewThread())
		h := mustOpen(ctx, w.FS, w.Path, vfsapi.WRONLY)
		defer func() { h.Close(ctx) }()
		var size int64
		for !clock.Done() {
			ok := probeOp(p, clock, w.Stats, w.OnOp, func() (int64, error) {
				if _, err := h.Append(ctx, w.OpSize); err != nil {
					return 0, err
				}
				size += w.OpSize
				return w.OpSize, h.Fsync(ctx)
			})
			switch {
			case ok:
				w.Acked = size
			case w.Reopen:
				if nh, err := w.FS.Open(ctx, w.Path, vfsapi.WRONLY); err == nil {
					h.Close(ctx)
					h = nh
					size = nh.Size()
				}
			}
		}
	})
}

// SeqReader reads Chunk bytes at a time through an existing file of
// Size bytes, wrapping to the start, closed loop on one thread until
// the clock expires. A failed read still advances the offset.
type SeqReader struct {
	Name      string // proc name
	FS        vfsapi.FileSystem
	Path      string
	Size      int64
	Chunk     int64
	NewThread func() *cpu.Thread
	// Reopen replaces the handle after every failed op (see WALWriter).
	Reopen bool
	OnOp   OpHook
	Stats  *Stats
}

// Run starts the reader thread.
func (r *SeqReader) Run(g *Group, clock Clock) {
	g.Go(r.Name, func(p *sim.Proc) {
		ctx := ctxFor(p, r.NewThread())
		h := mustOpen(ctx, r.FS, r.Path, vfsapi.RDONLY)
		defer func() { h.Close(ctx) }()
		var off int64
		for !clock.Done() {
			ok := probeOp(p, clock, r.Stats, r.OnOp, func() (int64, error) {
				return h.Read(ctx, off, r.Chunk)
			})
			if !ok && r.Reopen {
				if nh, err := r.FS.Open(ctx, r.Path, vfsapi.RDONLY); err == nil {
					h.Close(ctx)
					h = nh
				}
			}
			off += r.Chunk
			if off >= r.Size {
				off = 0
			}
		}
	})
}

// probeOp runs one probe op under the shared policy and reports
// whether it succeeded.
func probeOp(p *sim.Proc, clock Clock, stats *Stats, hook OpHook, op func() (int64, error)) bool {
	var done func(time.Duration, error)
	if hook != nil {
		done = hook()
	}
	start := p.Now()
	n, err := op()
	now := p.Now()
	if done != nil {
		done(now, err)
	}
	if err != nil {
		if stats != nil && clock.Measuring() {
			stats.Errors++
		}
		p.Sleep(time.Millisecond)
		return false
	}
	if stats != nil && clock.Measuring() {
		stats.Record(n, now-start)
	}
	return true
}

// PrepFile creates path and appends size bytes in whole chunks — the
// last chunk is not clipped, so the file ends at the next multiple of
// chunk — then fsyncs if it wrote anything and closes the file. Setup
// failures panic: a probe with no file to work on is a harness bug.
func PrepFile(ctx vfsapi.Ctx, fs vfsapi.FileSystem, path string, size, chunk int64) {
	h := mustOpen(ctx, fs, path, vfsapi.CREATE|vfsapi.WRONLY)
	for written := int64(0); written < size; written += chunk {
		if _, err := h.Append(ctx, chunk); err != nil {
			panic(err)
		}
	}
	if size > 0 {
		if err := h.Fsync(ctx); err != nil {
			panic(err)
		}
	}
	if err := h.Close(ctx); err != nil {
		panic(err)
	}
}

func mustOpen(ctx vfsapi.Ctx, fs vfsapi.FileSystem, path string, flags vfsapi.OpenFlag) vfsapi.Handle {
	h, err := fs.Open(ctx, path, flags)
	if err != nil {
		panic(err)
	}
	return h
}
