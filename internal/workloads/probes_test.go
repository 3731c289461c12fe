package workloads

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// crashFS stands in for a client that crashes from down until up:
// every op in that interval fails with ErrCrashed, and handles opened
// before the crash keep failing after it. It logs every read offset
// attempted and counts fsyncs.
type crashFS struct {
	vfsapi.FileSystem
	eng      *sim.Engine
	down, up time.Duration
	reads    []int64
	fsyncs   int
}

func (f *crashFS) crashed() bool {
	now := f.eng.Now()
	return now >= f.down && now < f.up
}

func (f *crashFS) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	if f.crashed() {
		return nil, vfsapi.ErrCrashed
	}
	h, err := f.FileSystem.Open(ctx, path, flags)
	if err != nil {
		return nil, err
	}
	return &crashHandle{Handle: h, fs: f, stale: f.eng.Now() < f.down}, nil
}

type crashHandle struct {
	vfsapi.Handle
	fs    *crashFS
	stale bool // opened before the crash
}

func (h *crashHandle) dead() bool {
	return h.fs.crashed() || (h.stale && h.fs.eng.Now() >= h.fs.down)
}

func (h *crashHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	h.fs.reads = append(h.fs.reads, off)
	if h.dead() {
		return 0, vfsapi.ErrCrashed
	}
	return h.Handle.Read(ctx, off, n)
}

func (h *crashHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	if h.dead() {
		return 0, vfsapi.ErrCrashed
	}
	return h.Handle.Append(ctx, n)
}

func (h *crashHandle) Fsync(ctx vfsapi.Ctx) error {
	if h.dead() {
		return vfsapi.ErrCrashed
	}
	h.fs.fsyncs++
	return h.Handle.Fsync(ctx)
}

func newCrashFS(r *rig, down, up time.Duration) *crashFS {
	r.mem.OpDelay = 100 * time.Microsecond
	return &crashFS{FileSystem: r.mem, eng: r.eng, down: down, up: up}
}

// PrepFile appends whole chunks, overshooting a size that is not a
// chunk multiple, and fsyncs only when it wrote bytes.
func TestPrepFileWholeChunks(t *testing.T) {
	r := newRig(t)
	fs := newCrashFS(r, 0, 0)
	r.run(t, func(p *sim.Proc) {
		ctx := ctxFor(p, r.newThread())
		PrepFile(ctx, fs, "/empty", 0, 1<<20)
		PrepFile(ctx, fs, "/cold", 5<<19, 1<<20)
	})
	if fs.fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want 1 (none for the empty file)", fs.fsyncs)
	}
	for path, want := range map[string]int64{"/empty": 0, "/cold": 3 << 20} {
		fi, err := r.mem.Stat(vfsapi.Ctx{}, path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size != want {
			t.Errorf("%s: size %d, want %d", path, fi.Size, want)
		}
	}
}

// The reader wraps at Size, advances past a failed read, and resumes
// after a crash only when it reopens its handle.
func TestSeqReaderCrashAndWrap(t *testing.T) {
	const size, chunk = 1 << 20, 256 << 10
	for _, reopen := range []bool{false, true} {
		r := newRig(t)
		fs := newCrashFS(r, 10*time.Millisecond, 20*time.Millisecond)
		w := &SeqReader{
			Name: "reader", FS: fs, Path: "/f", Size: size, Chunk: chunk,
			NewThread: r.newThread, Reopen: reopen, Stats: NewStats(),
		}
		var afterCrash uint64
		r.run(t, func(p *sim.Proc) {
			PrepFile(ctxFor(p, r.newThread()), r.mem, "/f", size, chunk)
			g := NewGroup(r.eng)
			w.Run(g, r.clock(time.Millisecond, 39*time.Millisecond))
			g.Go("probe", func(pp *sim.Proc) {
				pp.Sleep(25 * time.Millisecond)
				afterCrash = w.Stats.Ops.Ops
			})
			g.Wait(p)
		})
		resumed := w.Stats.Ops.Ops > afterCrash
		if resumed != reopen {
			t.Errorf("reopen=%v: reads resumed after the crash = %v", reopen, resumed)
		}
		if w.Stats.Errors == 0 {
			t.Errorf("reopen=%v: no errors counted across the crash", reopen)
		}
		if w.Stats.Ops.Bytes != int64(w.Stats.Ops.Ops)*chunk {
			t.Errorf("reopen=%v: short reads: %d bytes in %d ops; the reader ran past EOF",
				reopen, w.Stats.Ops.Bytes, w.Stats.Ops.Ops)
		}
		for i := 1; i < len(fs.reads); i++ {
			if want := (fs.reads[i-1] + chunk) % size; fs.reads[i] != want {
				t.Fatalf("reopen=%v: read %d at offset %d, want %d", reopen, i, fs.reads[i], want)
			}
		}
	}
}

// The WAL writer acknowledges exactly the bytes covered by its last
// successful fsync, reopens through a crash, and counts errors only
// inside the measurement window.
func TestWALWriterAckedFrontier(t *testing.T) {
	for _, down := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond} {
		r := newRig(t)
		fs := newCrashFS(r, down, down+5*time.Millisecond)
		w := &WALWriter{
			FS: fs, Path: "/wal", OpSize: 64 << 10,
			NewThread: r.newThread, Reopen: true, Stats: NewStats(),
		}
		var ops, failed int
		w.OnOp = func() func(time.Duration, error) {
			ops++
			return func(_ time.Duration, err error) {
				if err != nil {
					failed++
				}
			}
		}
		r.run(t, func(p *sim.Proc) {
			PrepFile(ctxFor(p, r.newThread()), r.mem, "/wal", 0, 1)
			g := NewGroup(r.eng)
			w.Run(g, r.clock(8*time.Millisecond, 20*time.Millisecond))
			g.Wait(p)
		})
		fi, err := r.mem.Stat(vfsapi.Ctx{}, "/wal")
		if err != nil {
			t.Fatal(err)
		}
		if w.Acked == 0 || w.Acked != fi.Size {
			t.Errorf("crash at %v: acked %d, file holds %d", down, w.Acked, fi.Size)
		}
		if failed == 0 || ops != fs.fsyncs+failed {
			t.Errorf("crash at %v: hook saw %d ops, %d failed, %d fsyncs", down, ops, failed, fs.fsyncs)
		}
		inWindow := down >= 8*time.Millisecond
		if counted := w.Stats.Errors > 0; counted != inWindow {
			t.Errorf("crash at %v: errors counted = %v, want %v (only inside the window)", down, counted, inWindow)
		}
	}
}
