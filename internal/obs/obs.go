// Package obs is the cross-layer observability layer of the testbed:
// request-scoped spans recording per-layer enter/exit in virtual time,
// per-core execution slices, and a per-tenant metrics registry, all
// exportable as a Chrome/Perfetto trace and as JSON/CSV metrics (see
// OBSERVABILITY.md).
//
// Two properties shape the design:
//
//   - Zero overhead when disabled. The recorder is carried as a
//     possibly-nil pointer (a nil *Recorder, a nil *Span) and every
//     method is nil-safe, so instrumented code paths simply pass a nil
//     through. No engine events are scheduled and no virtual time is
//     consumed: a run without a recorder is event-for-event identical
//     to an uninstrumented build, and a run WITH a recorder (sampling
//     off) produces identical virtual-time results — the recorder only
//     reads the clock.
//
//   - Determinism. Span and slice identifiers are assigned
//     sequentially in engine order, timestamps are virtual, and the
//     exporters sort every map, so the same schedule produces
//     byte-identical artifacts across runs.
//
// Spans are created at the filesystem facade boundary (see
// vfsapi.Traced) and travel by value inside vfsapi.Ctx through every
// layer; each layer brackets its work with Span.Enter/Scope.Exit.
// Background activity that acts on behalf of a tenant — the kernel
// writeback flusher, the user-level client flusher — opens its own
// span tagged with the *originating* tenant, so core stealing and
// lock waits can be attributed to the pool whose dirty data caused
// them even though the CPU time lands on the kernel's account.
//
// The package deliberately depends only on the standard library and
// internal/metrics, so every simulator layer (sim, cpu, vfsapi, kern,
// cluster, ...) can import it without cycles; the virtual clock is
// injected as a closure instead of importing the engine.
package obs

import (
	"fmt"
	"sort"
	"time"
)

// Layer names one level of the client I/O stack crossed by a span.
// The vocabulary is documented in OBSERVABILITY.md.
type Layer string

// Layer vocabulary, ordered roughly top (application-facing) to
// bottom (storage cluster).
const (
	// LayerRequest is the root slice of a request span, emitted by the
	// vfsapi.Traced facade when the operation completes.
	LayerRequest Layer = "request"
	// LayerIPC is the Danaus shared-memory transport (ipc.Transport).
	LayerIPC Layer = "ipc"
	// LayerFUSE is a FUSE crossing (fusefs.Transport).
	LayerFUSE Layer = "fuse"
	// LayerUnion is the union filesystem (unionfs.Union).
	LayerUnion Layer = "union"
	// LayerClient is the user-level Ceph client (cephclient.Client).
	LayerClient Layer = "client"
	// LayerSyscall is the kernel VFS entry (kern.Syscalls).
	LayerSyscall Layer = "syscall"
	// LayerWriteback is flusher writeback work (kern.Mount.flushPass,
	// cephclient flushPass); its span carries the originating tenant.
	LayerWriteback Layer = "writeback"
	// LayerMDS is a metadata round trip to the MDS.
	LayerMDS Layer = "mds"
	// LayerOSD is object service at an OSD (media + op cost).
	LayerOSD Layer = "osd"
	// LayerNet is time on the network fabric (NIC links, propagation).
	LayerNet Layer = "net"
	// LayerEvent is a zero-duration point marker (Recorder.Mark):
	// circuit-breaker state transitions, brownout flips. The blame
	// engine ignores it (it only decomposes LayerRequest slices).
	LayerEvent Layer = "event"
)

// Config configures a Recorder.
type Config struct {
	// Clock reads the virtual time (typically sim.Engine.Now).
	// Required.
	Clock func() time.Duration
	// SampleInterval is the virtual-time period of the core-utilization
	// and cache-occupancy series sampler (core.Testbed.AttachObserver
	// schedules it). Zero or negative disables sampling — and with it
	// the only engine events observability ever adds.
	SampleInterval time.Duration
	// MaxEvents caps the retained trace events (span slices plus core
	// slices). Beyond the cap events are counted as dropped instead of
	// retained, keeping memory bounded on long runs. Zero means the
	// default of 4M events.
	MaxEvents int
}

// Recorder accumulates the trace events and metrics of one testbed
// run. A nil *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	cfg      Config
	nextSpan uint64
	slices   []SliceEvent
	cores    []CoreEvent
	waits    []WaitEvent
	dropped  uint64

	// procSpan binds each simulated process to the span it is currently
	// serving, so passively observed waits (engine wait observer) can be
	// attributed to a request. Exactly one goroutine runs at any instant
	// in the simulation, so plain map access is safe.
	procSpan map[int32]*Span
	// unattributed counts waits observed on processes with no bound
	// span (warmup traffic, background threads outside their lazy
	// writeback spans).
	unattributed uint64
	// open tracks spans started and not yet ended — the span-leak
	// checker's ledger.
	open map[uint64]*Span

	// Tenant/op/layer/account names are interned to small ids so the
	// (potentially millions of) retained events carry no pointers: the
	// garbage collector never scans the event buffers, which keeps
	// recording overhead flat as they grow.
	syms   []string
	symIdx map[string]Sym

	reg        *Registry
	finalizers []func(*Registry)
	finalized  bool

	// subs are the live-stream subscribers (trace capture, telemetry),
	// in subscription order. Each is a pure observer: no engine events,
	// no clock reads beyond what OpDone already does.
	subs []*Subscriber
}

// Sym is an interned string id, resolvable with Recorder.Str. Ids are
// assigned sequentially in first-use (engine) order, so they are
// deterministic across identical runs.
type Sym uint32

// SliceEvent is one recorded layer crossing of a span: the span spent
// [Start, Start+Dur) inside Layer. String fields are interned
// (Recorder.Str resolves them) to keep the event buffers pointer-free.
type SliceEvent struct {
	Span   uint64
	Proc   int32
	Tenant Sym
	Op     Sym
	Layer  Sym
	Start  time.Duration
	Dur    time.Duration
	Err    bool
}

// WaitEvent is one completed wait interval observed while a bound span
// was being served: the span's process spent [Start, Start+Dur) blocked
// on (or, for Kind "run", executing on) Resource. Holder identifies the
// party occupying the resource when the wait began ("" when not
// applicable). String fields are interned (Recorder.Str resolves them).
type WaitEvent struct {
	Span     uint64
	Proc     int32
	Tenant   Sym
	Op       Sym
	Kind     Sym
	Resource Sym
	Holder   Sym
	// HolderTenant is the tenant of the span the holder process was
	// serving when the wait completed ("" when the holder is not a
	// process or was not serving a traced request). The interference
	// matrix prefers it over Holder: background kernel threads dissolve
	// into the tenant on whose behalf they worked.
	HolderTenant Sym
	Start        time.Duration
	Dur          time.Duration
}

// CoreEvent is one scheduler quantum (or sub-quantum slice) executed
// on a simulated core, attributed to the account that consumed it.
// Account and Kind are interned (Recorder.Str).
type CoreEvent struct {
	Core    int32
	Start   time.Duration
	Dur     time.Duration
	Account Sym
	Kind    Sym // "user" or "kernel"
}

// OpEvent describes one completed VFS operation as seen at the
// facade boundary (vfsapi.Traced): who issued it, what it did, when it
// was issued in virtual time, and how long it took. It carries enough
// to reissue the operation byte-identically (path, flags, offset,
// length), which is what internal/trace records and replays.
type OpEvent struct {
	Proc    int32
	Tenant  string
	Op      string
	Path    string
	Path2   string // rename destination, "" otherwise
	Flags   int    // open flags bitmask, 0 otherwise
	Offset  int64
	Len     int64         // requested length (reissue parameter)
	Bytes   int64         // bytes actually served (short reads < Len)
	Issue   time.Duration // span start (virtual time the op was issued)
	Latency time.Duration
	Err     bool
}

// Subscriber receives the recorder's live streams. Op fires once per
// root request span as it completes, in engine order; Wait fires for
// every wait attributed to a span, with the served (victim) tenant and
// the tenant of the holder's span (aggressor, "" when none). Either
// may be nil.
type Subscriber struct {
	Op   func(OpEvent)
	Wait func(victim, aggressor string, start, dur time.Duration)
}

// Subscribe adds s to the recorder's subscribers and returns the
// function that removes it again; subscribers are independent, so one
// detaching leaves the others in place. With no subscriber the capture
// path costs a single length check per op and reads no clock,
// preserving the zero-overhead-when-disabled contract. Nil-safe.
func (r *Recorder) Subscribe(s Subscriber) (detach func()) {
	if r == nil {
		return func() {}
	}
	sub := &s
	r.subs = append(r.subs, sub)
	return func() {
		for i, x := range r.subs {
			if x == sub {
				r.subs = append(r.subs[:i], r.subs[i+1:]...)
				return
			}
		}
	}
}

// OpDone feeds one completed operation to the subscribers. The traced
// facade calls it alongside Span.End with the reissue parameters the
// span itself does not carry (path, flags, offset, length) plus the
// bytes actually served. No-op when the recorder, the subscriber list,
// or the span is nil — nested facade crossings pass a nil span, so
// only the root of a request is captured.
func (r *Recorder) OpDone(sp *Span, path, path2 string, flags int, off, n, served int64, err error) {
	if r == nil || sp == nil || len(r.subs) == 0 {
		return
	}
	e := OpEvent{
		Proc: sp.proc, Tenant: sp.tenant, Op: sp.op,
		Path: path, Path2: path2, Flags: flags, Offset: off, Len: n, Bytes: served,
		Issue: sp.start, Latency: r.cfg.Clock() - sp.start, Err: err != nil,
	}
	for _, s := range r.subs {
		if s.Op != nil {
			s.Op(e)
		}
	}
}

// New creates an enabled recorder. cfg.Clock must be set.
func New(cfg Config) *Recorder {
	if cfg.Clock == nil {
		panic("obs: Config.Clock is required")
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 4 << 20
	}
	return &Recorder{
		cfg: cfg, reg: NewRegistry(), symIdx: map[string]Sym{},
		procSpan: map[int32]*Span{}, open: map[uint64]*Span{},
	}
}

// intern maps a string to its stable id, assigning one on first use.
func (r *Recorder) intern(s string) Sym {
	if id, ok := r.symIdx[s]; ok {
		return id
	}
	id := Sym(len(r.syms))
	r.syms = append(r.syms, s)
	r.symIdx[s] = id
	return id
}

// Str resolves an interned id back to its string. Nil-safe.
func (r *Recorder) Str(id Sym) string {
	if r == nil || int(id) >= len(r.syms) {
		return ""
	}
	return r.syms[id]
}

// Enabled reports whether the recorder collects anything (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Now reads the recorder's virtual clock.
func (r *Recorder) Now() time.Duration { return r.cfg.Clock() }

// SampleInterval returns the configured sampler period.
func (r *Recorder) SampleInterval() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SampleInterval
}

// Dropped returns how many events were discarded over MaxEvents.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Slices returns the recorded span slices (exporter access).
func (r *Recorder) Slices() []SliceEvent { return r.slices }

// CoreEvents returns the recorded per-core slices (exporter access).
func (r *Recorder) CoreEvents() []CoreEvent { return r.cores }

// Waits returns the recorded wait events (blame-engine access).
func (r *Recorder) Waits() []WaitEvent {
	if r == nil {
		return nil
	}
	return r.waits
}

// UnattributedWaits returns how many observed waits had no bound span.
func (r *Recorder) UnattributedWaits() uint64 {
	if r == nil {
		return 0
	}
	return r.unattributed
}

// Registry returns the metrics registry, or nil when disabled.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

func (r *Recorder) room() bool {
	if len(r.slices)+len(r.cores)+len(r.waits) >= r.cfg.MaxEvents {
		r.dropped++
		return false
	}
	return true
}

// StartSpan opens a request-scoped span for tenant performing op on
// simulated process proc. Returns nil (a no-op span) when the
// recorder is disabled.
func (r *Recorder) StartSpan(proc int, tenant, op string) *Span {
	if r == nil {
		return nil
	}
	r.nextSpan++
	s := &Span{
		rec: r, id: r.nextSpan, proc: int32(proc),
		tenant: tenant, op: op,
		tenantSym: r.intern(tenant), opSym: r.intern(op),
		start: r.cfg.Clock(),
	}
	r.procSpan[s.proc] = s
	r.open[s.id] = s
	return s
}

// Mark records a zero-duration point event (layer "event") tagged with
// tenant and name — breaker transitions, brownout flips. Unlike
// StartSpan it never binds a process, so a mark emitted mid-request
// cannot steal the wait attribution of the active request span.
// Nil-safe.
func (r *Recorder) Mark(tenant, name string) {
	if r == nil || !r.room() {
		return
	}
	r.nextSpan++
	now := r.cfg.Clock()
	r.slices = append(r.slices, SliceEvent{
		Span: r.nextSpan, Tenant: r.intern(tenant), Op: r.intern(name),
		Layer: r.intern(string(LayerEvent)), Start: now,
	})
}

// Wait attributes one passively observed wait interval to the span
// currently bound to proc. Waits on processes with no bound span
// (warmup traffic, background threads between writeback passes) are
// counted, not stored. When holderID names a process that is itself
// serving a span, the holder is additionally resolved to that span's
// tenant — so a kernel flusher holding i_mutex mid-writeback blames
// the tenant whose dirty data it was flushing. Nil-safe.
func (r *Recorder) Wait(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
	if r == nil {
		return
	}
	s, ok := r.procSpan[int32(proc)]
	if !ok {
		r.unattributed++
		return
	}
	holderTenant := ""
	if holderID != 0 {
		if hs, ok := r.procSpan[int32(holderID)]; ok {
			holderTenant = hs.tenant
		}
	}
	// Subscribers see every attributed wait, even once the bounded event
	// buffer is full — the monitor aggregates online and stores O(1).
	for _, sub := range r.subs {
		if sub.Wait != nil {
			sub.Wait(s.tenant, holderTenant, start, dur)
		}
	}
	if !r.room() {
		return
	}
	r.waits = append(r.waits, WaitEvent{
		Span: s.id, Proc: s.proc, Tenant: s.tenantSym, Op: s.opSym,
		Kind: r.intern(kind), Resource: r.intern(resource),
		Holder: r.intern(holder), HolderTenant: r.intern(holderTenant),
		Start: start, Dur: dur,
	})
}

// LeakedSpans describes every span opened but never ended, sorted by
// span id. The test suite asserts this is empty at engine drain: a
// leaked span means an instrumentation point lost an End on some path.
// Nil-safe.
func (r *Recorder) LeakedSpans() []string {
	if r == nil || len(r.open) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		s := r.open[id]
		out = append(out, fmt.Sprintf("span %d proc %d tenant %q op %q started %v",
			s.id, s.proc, s.tenant, s.op, s.start))
	}
	return out
}

// Core records one executed core slice. Nil-safe.
func (r *Recorder) Core(core int, start, dur time.Duration, account, kind string) {
	if r == nil || !r.room() {
		return
	}
	r.cores = append(r.cores, CoreEvent{
		Core: int32(core), Start: start, Dur: dur,
		Account: r.intern(account), Kind: r.intern(kind),
	})
}

// Sample appends one point to the named per-tenant time series
// (tenant "host" is the whole-machine pseudo-tenant). Nil-safe.
func (r *Recorder) Sample(tenant, series string, t time.Duration, v float64) {
	if r == nil {
		return
	}
	r.reg.Tenant(tenant).Series(series).Add(t, v)
}

// OnFinalize registers a harvest function run once by Finalize, in
// registration order. Used to fold end-of-run aggregates (lock stats,
// cache stats, fault counters) into the registry. Nil-safe.
func (r *Recorder) OnFinalize(fn func(*Registry)) {
	if r == nil {
		return
	}
	r.finalizers = append(r.finalizers, fn)
}

// Finalize runs the registered harvest functions exactly once (the
// exporters call it). Nil-safe and idempotent.
func (r *Recorder) Finalize() {
	if r == nil || r.finalized {
		return
	}
	r.finalized = true
	for _, fn := range r.finalizers {
		fn(r.reg)
	}
}

// Span is one request (or one background writeback pass) traveling
// through the stack. A nil *Span is the disabled state: every method
// no-ops, so instrumentation points never test for enablement.
type Span struct {
	rec       *Recorder
	id        uint64
	proc      int32
	tenant    string
	op        string
	tenantSym Sym
	opSym     Sym
	start     time.Duration
}

// Tenant returns the originating tenant tag ("" on a nil span).
func (s *Span) Tenant() string {
	if s == nil {
		return ""
	}
	return s.tenant
}

// Enter brackets entry into a layer; the returned Scope's Exit
// records the slice. Usable as `defer sp.Enter(l).Exit()`. Nil-safe:
// a nil span returns a zero Scope whose Exit no-ops.
func (s *Span) Enter(l Layer) Scope {
	if s == nil {
		return Scope{}
	}
	return Scope{span: s, layer: l, start: s.rec.cfg.Clock()}
}

// End completes the span: it emits the root LayerRequest slice and
// folds the operation into the per-tenant registry (latency
// histogram, op/byte/error counters). Nil-safe.
func (s *Span) End(bytes int64, err error) {
	if s == nil {
		return
	}
	now := s.rec.cfg.Clock()
	if s.rec.room() {
		s.rec.slices = append(s.rec.slices, SliceEvent{
			Span: s.id, Proc: s.proc, Tenant: s.tenantSym, Op: s.opSym,
			Layer: s.rec.intern(string(LayerRequest)),
			Start: s.start, Dur: now - s.start, Err: err != nil,
		})
	}
	if s.rec.procSpan[s.proc] == s {
		delete(s.rec.procSpan, s.proc)
	}
	delete(s.rec.open, s.id)
	s.rec.reg.Tenant(s.tenant).Op(s.op).record(now-s.start, bytes, err)
}

// LockWait attributes a lock-acquisition wait observed while serving
// this span to the span's tenant. Zero waits still count an
// acquisition. Nil-safe.
func (s *Span) LockWait(lock string, wait time.Duration) {
	if s == nil {
		return
	}
	s.rec.reg.Tenant(s.tenant).Lock(lock).addWait(wait)
}

// Scope is an open layer crossing of a span.
type Scope struct {
	span  *Span
	layer Layer
	start time.Duration
}

// Exit closes the crossing and records its slice. No-op on the zero
// Scope.
func (sc Scope) Exit() {
	s := sc.span
	if s == nil {
		return
	}
	if !s.rec.room() {
		return
	}
	now := s.rec.cfg.Clock()
	s.rec.slices = append(s.rec.slices, SliceEvent{
		Span: s.id, Proc: s.proc, Tenant: s.tenantSym, Op: s.opSym,
		Layer: s.rec.intern(string(sc.layer)), Start: sc.start, Dur: now - sc.start,
	})
}
