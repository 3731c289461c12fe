package cephclient

import (
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// ErrCrashed is returned by every operation after the filesystem
// service has failed, and by operations on handles that predate a
// crash after the service restarted. It aliases vfsapi.ErrCrashed so
// every client stack (Danaus, FUSE, kernel) fails with the same
// deterministic error.
var ErrCrashed = vfsapi.ErrCrashed

// The vfsapi.FileSystem implementation of the user-level client.

// lookupAttr resolves a path via the attribute cache, falling back to
// an MDS round trip.
func (c *Client) lookupAttr(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	var hit bool
	var e attrEntry
	c.lockedMeta(ctx, func() { e, hit = c.attrs[path] })
	if hit {
		return e.info, e.ino, nil
	}
	c.wire(ctx, 256)
	info, ino, err := c.clus.MetaLookup(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	c.lockedMeta(ctx, func() {
		c.attrs[path] = attrEntry{info: info, ino: ino}
		c.paths[ino] = path
	})
	return info, ino, nil
}

// Open opens or creates a file.
func (c *Client) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	c.opCPU(ctx)
	info, ino, err := c.lookupAttr(ctx, path)
	switch {
	case err == nil:
		if info.IsDir {
			return nil, vfsapi.ErrIsDir
		}
	case err == vfsapi.ErrNotExist && flags.Has(vfsapi.CREATE):
		c.wire(ctx, 256)
		ino, err = c.clus.MetaCreate(ctx, path)
		if err != nil {
			return nil, err
		}
		info = vfsapi.FileInfo{Name: path}
		c.lockedMeta(ctx, func() {
			c.attrs[path] = attrEntry{info: info, ino: ino}
			c.paths[ino] = path
		})
	default:
		return nil, err
	}
	// Acquire capabilities matching the open intent; a conflicting
	// holder elsewhere is flushed and invalidated first (§3.4). When a
	// revocation happened, the size we looked up may predate the other
	// client's flush — refetch it.
	kind := cluster.CapRead
	if flags.Writable() {
		kind = cluster.CapWrite
	}
	if c.clus.AcquireCaps(ctx, ino, kind, c) {
		c.lockedMeta(ctx, func() { delete(c.attrs, path) })
		var err error
		info, ino, err = c.lookupAttr(ctx, path)
		if err != nil {
			return nil, err
		}
	}
	f := c.file(ino, info.Size)
	if flags.Has(vfsapi.TRUNC) && flags.Writable() {
		c.lockedMeta(ctx, func() { c.dropCache(f) })
		f.size = 0
		c.wire(ctx, 256)
		if err := c.clus.MetaSetSize(ctx, path, 0); err != nil {
			return nil, err
		}
		c.clus.TruncateObjects(ino, 0)
		c.lockedMeta(ctx, func() {
			if e, ok := c.attrs[path]; ok {
				e.info.Size = 0
				c.attrs[path] = e
			}
		})
	}
	return &chandle{c: c, f: f, path: path, flags: flags, gen: c.gen}, nil
}

// Stat returns metadata, preferring the client's newer size view.
func (c *Client) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return vfsapi.FileInfo{}, err
	}
	c.opCPU(ctx)
	info, ino, err := c.lookupAttr(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, err
	}
	if f, ok := c.files[ino]; ok && !info.IsDir && f.size > info.Size {
		info.Size = f.size
	}
	return info, nil
}

// Mkdir creates a directory at the MDS.
func (c *Client) Mkdir(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	return c.clus.MetaMkdir(ctx, path)
}

// Readdir lists a directory at the MDS.
func (c *Client) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	c.opCPU(ctx)
	c.wire(ctx, 512)
	return c.clus.MetaReaddir(ctx, path)
}

// Unlink removes a file, dropping local cache state.
func (c *Client) Unlink(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	if err := c.clus.MetaUnlink(ctx, path); err != nil {
		return err
	}
	c.lockedMeta(ctx, func() {
		if e, ok := c.attrs[path]; ok {
			if f, ok := c.files[e.ino]; ok {
				f.unlinked = true
				c.dropCache(f)
				delete(c.files, e.ino)
			}
			delete(c.paths, e.ino)
			delete(c.attrs, path)
		}
	})
	return nil
}

// Rmdir removes an empty directory at the MDS.
func (c *Client) Rmdir(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	return c.clus.MetaRmdir(ctx, path)
}

// Rename moves a file at the MDS and rewrites cached entries.
func (c *Client) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	if err := c.clus.MetaRename(ctx, oldPath, newPath); err != nil {
		return err
	}
	c.lockedMeta(ctx, func() {
		if e, ok := c.attrs[oldPath]; ok {
			delete(c.attrs, oldPath)
			c.attrs[newPath] = e
			c.paths[e.ino] = newPath
		}
	})
	return nil
}

// chandle is an open file on the user-level client.
type chandle struct {
	c      *Client
	f      *cfile
	path   string
	flags  vfsapi.OpenFlag
	closed bool
	wrote  bool

	// gen is the client crash generation the handle was opened under; a
	// handle from an older generation is stale after a crash.
	gen uint64

	// Sequential-read detection for the client's readahead.
	raNext   int64
	raWindow int64
}

// Path returns the open path.
func (h *chandle) Path() string { return h.path }

// Size returns the client's size view.
func (h *chandle) Size() int64 { return h.f.size }

// failIfStale rejects operations while the service is down and on
// handles that predate a crash: the restarted service has no state for
// them (its cfile map is cold), so they keep failing with ErrCrashed
// until the application reopens — the replayable-remount contract.
func (h *chandle) failIfStale(ctx vfsapi.Ctx) error {
	if h.stale() {
		// Failing is not free: charge one operation's CPU so loops
		// erroring on a stale handle advance simulated time.
		h.c.opCPU(ctx)
		return ErrCrashed
	}
	return nil
}

// stale reports whether the service is down or the handle predates a
// crash.
func (h *chandle) stale() bool { return h.c.crashed || h.gen != h.c.gen }

// Read serves from the object cache, fetching misses from the OSDs.
//
// The read runs as chains of a pooled op. The operation's CPU, the
// clamp to the file size, the LRU touch, the readahead window, the
// first gap check and — when the range is cached — the copy out are one
// chain, so a cached read parks its process once. A miss, a range
// another reader is fetching or a crash ends the chain; the process
// fetches, waits or fails as the loop form did at that point, and the
// next gap check starts a new chain.
func (h *chandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, vfsapi.ErrClosed
	}
	c := h.c
	r := c.getOp(h, ctx, off, n)
	defer c.putOp(r)
	c.cpus.Charge(ctx.P.Chain(), c.opSeg(ctx)).Func(r.clampFn).Run()
	for {
		switch {
		case r.n <= 0:
			return 0, nil
		case r.done:
			return r.n, nil
		case r.stale:
			// The client can crash while this reader is parked on the
			// fetch queue or inside the backend read; resume as a
			// failure, not as a cache insert against the restarted
			// incarnation.
			return 0, h.failIfStale(ctx)
		case r.wait:
			// Unlike the kernel page cache's fetch wait, this stays a
			// process-side loop on WaitTimeout: each re-check takes
			// client_lock and charges ClientLockHold, which an
			// engine-side WaitUntil re-check could not do without
			// changing simulated results.
			c.fetchQ.WaitTimeout(ctx.P, c.params.DirtyThrottleCheck)
		default:
			if err := r.fetch(); err != nil {
				return 0, err
			}
		}
		ctx.P.Chain().Func(r.checkFn).Run()
	}
}

// op is the state of one Read or Write, pooled per client. Its chain
// steps are methods bound once, so an operation's chains allocate
// nothing.
type op struct {
	c   *Client
	h   *chandle
	ctx vfsapi.Ctx
	off int64
	n   int64

	// Read: the readahead-extended range, the gap claimed for fetching,
	// and how the last chain ended.
	fetchLen    int64
	gOff, gLen  int64
	wait, stale bool
	done        bool

	// The chain steps, bound once.
	clampFn, readaheadFn, checkFn, copyOutFn func(*sim.Chain) bool
	touchFn, findGapFn, noteWriteFn          func(*sim.Chain) bool
}

func (c *Client) getOp(h *chandle, ctx vfsapi.Ctx, off, n int64) *op {
	var r *op
	if k := len(c.opPool); k > 0 {
		r = c.opPool[k-1]
		c.opPool = c.opPool[:k-1]
	} else {
		r = &op{c: c}
		r.clampFn, r.readaheadFn, r.checkFn, r.copyOutFn = r.clamp, r.readahead, r.check, r.copyOut
		r.touchFn, r.findGapFn, r.noteWriteFn = r.touch, r.findGap, r.noteWrite
	}
	r.h, r.ctx, r.off, r.n = h, ctx, off, n
	r.fetchLen, r.gOff, r.gLen = 0, 0, 0
	r.wait, r.stale, r.done = false, false, false
	return r
}

func (c *Client) putOp(r *op) {
	r.h, r.ctx = nil, vfsapi.Ctx{}
	c.opPool = append(c.opPool, r)
}

// clamp clamps the read to the file size where the operation's CPU
// ends, then touches the file's LRU entry under client_lock.
func (r *op) clamp(ch *sim.Chain) bool {
	size := r.h.f.size
	if r.off >= size {
		r.n = 0
	} else if r.off+r.n > size {
		r.n = size - r.off
	}
	if r.n <= 0 {
		return false
	}
	r.c.metaSegs(ch, r.ctx, r.touchFn)
	ch.Func(r.readaheadFn)
	return true
}

func (r *op) touch(*sim.Chain) bool {
	r.c.touch(r.h.f)
	return true
}

// readahead sets the fetch range (libcephfs prefetches on sequential
// streams: the window grows while the stream stays sequential), then
// starts the first gap check.
func (r *op) readahead(ch *sim.Chain) bool {
	h := r.h
	r.fetchLen = r.n
	const maxReadahead = 512 << 10
	if r.off == h.raNext {
		if h.raWindow == 0 {
			h.raWindow = maxReadahead / 8
		}
		h.raWindow *= 2
		if h.raWindow > maxReadahead {
			h.raWindow = maxReadahead
		}
	} else {
		h.raWindow = 0 // random access: no readahead
	}
	r.fetchLen += h.raWindow
	if r.off+r.fetchLen > h.f.size {
		r.fetchLen = h.f.size - r.off
	}
	h.raNext = r.off + r.n
	return r.check(ch)
}

// check finds the first gap of the fetch range under client_lock,
// unless the client crashed, which ends the chain.
func (r *op) check(ch *sim.Chain) bool {
	r.wait, r.gOff, r.gLen = false, 0, 0
	if r.h.stale() {
		r.stale = true
		return false
	}
	r.c.metaSegs(ch, r.ctx, r.findGapFn)
	ch.Func(r.copyOutFn)
	return true
}

// findGap claims the first gap of the fetch range for fetching, with
// single-fetcher semantics: a range already being fetched by another
// reader is awaited, not re-fetched (the page in-flight locking of a
// real client).
func (r *op) findGap(*sim.Chain) bool {
	f := r.h.f
	g, ok := f.cached.FirstGap(r.off, r.fetchLen)
	if !ok {
		return true
	}
	if f.fetching.Covered(g.Off, g.Len) > 0 {
		r.wait = true
		return true
	}
	r.gOff, r.gLen = g.Off, g.Len
	f.fetching.Insert(r.gOff, r.gLen)
	return true
}

// copyOut ends the chain at a gap to fetch or wait for. Otherwise the
// range is cached: copy it out (partially under client_lock).
func (r *op) copyOut(ch *sim.Chain) bool {
	if r.wait || r.gLen > 0 {
		return false
	}
	r.c.stats.ReadBytes += r.n
	r.c.copySegs(ch, r.ctx, r.n, false)
	r.done = true
	return true
}

// fetch reads the claimed gap from the backend into the cache, then
// releases the claim and wakes the readers awaiting it.
func (r *op) fetch() error {
	c, h, ctx := r.c, r.h, r.ctx
	c.wire(ctx, r.gLen)
	err := c.readBackend(ctx, h.f.ino, r.gOff, r.gLen)
	if err == nil {
		err = h.failIfStale(ctx)
	}
	if err == nil {
		c.stats.MissBytes += r.gLen
		c.cacheInsert(ctx, h.f, r.gOff, r.gLen)
	}
	// Release the claim, on failure too, or readers waiting on this
	// range would park forever.
	c.lockedMeta(ctx, r.unclaim)
	c.fetchQ.Broadcast()
	return err
}

func (r *op) unclaim() { r.h.f.fetching.Remove(r.gOff, r.gLen) }

func (r *op) noteWrite(*sim.Chain) bool {
	r.h.wrote = true
	r.c.stats.WriteBytes += r.n
	return true
}

// Write copies into the object cache and marks dirty, throttling at the
// client's dirty limit.
func (h *chandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, vfsapi.ErrClosed
	}
	if !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE) {
		return 0, vfsapi.ErrReadOnly
	}
	if n <= 0 {
		return 0, nil
	}
	c := h.c
	r := c.getOp(h, ctx, off, n)
	ch := ctx.P.Chain()
	c.cpus.Charge(ch, c.opSeg(ctx)).Func(r.noteWriteFn)
	c.copySegs(ch, ctx, n, true).Run()
	c.putOp(r)
	// The copy waits on client_lock; the writer may resume on the far
	// side of a crash and must fail rather than dirty the restarted
	// incarnation's cache through a dead cfile.
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	c.cacheInsert(ctx, h.f, off, n)
	if end := off + n; end > h.f.size {
		h.f.size = end
	}
	c.markDirty(ctx, h.f, off, n)
	return n, nil
}

// Append writes at the end of file.
func (h *chandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	off := h.f.size
	_, err := h.Write(ctx, off, n)
	return off, err
}

// Fsync drains this file's dirty data synchronously.
func (h *chandle) Fsync(ctx vfsapi.Ctx) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return err
	}
	if h.closed {
		return vfsapi.ErrClosed
	}
	c := h.c
	for h.f.dirty.Len() > 0 {
		var exts []int64
		c.lockedMeta(ctx, func() {
			for _, e := range h.f.dirty.PopFirst(4 << 20) {
				exts = append(exts, e.Off, e.Len)
			}
		})
		var popped int64
		for i := 0; i < len(exts); i += 2 {
			popped += exts[i+1]
		}
		var werr error
		for i := 0; i < len(exts); i += 2 {
			c.wire(ctx, exts[i+1])
			if werr = c.writePersist(ctx, h.f.ino, exts[i], exts[i+1]); werr != nil {
				break
			}
		}
		if err := h.failIfStale(ctx); err != nil {
			// Crashed mid-persist: the crash already zeroed the dirty
			// accounting with the rest of the cache, so decrementing the
			// popped extents here would double-count the loss.
			return err
		}
		// The popped extents left the dirty set either way; keep the
		// accounting consistent even on a failed persist (the client is
		// stopped — the data is lost, as a crash loses it).
		c.dirtyBytes -= popped
		c.throttleQ.Broadcast()
		if werr != nil {
			return werr
		}
	}
	c.removeDirty(h.f)
	c.pushSize(ctx, h.f)
	return nil
}

// Close releases the handle, pushing the size for written files.
func (h *chandle) Close(ctx vfsapi.Ctx) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if h.closed {
		return vfsapi.ErrClosed
	}
	if err := h.failIfStale(ctx); err != nil {
		// The handle is dead either way; report the crash but do not
		// push sizes from a pre-crash incarnation into the fresh cache.
		h.closed = true
		return err
	}
	h.closed = true
	h.c.opCPU(ctx)
	if h.wrote && !h.f.unlinked {
		h.c.pushSize(ctx, h.f)
	}
	return nil
}
