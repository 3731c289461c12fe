// Package cpu models the multicore processor of a host: cores with
// affinity-constrained FIFO scheduling, quantum-based time sharing,
// per-core utilization accounting and per-pool attribution.
//
// The model captures the two scheduling phenomena the paper builds on:
// kernel threads with a host-wide affinity mask consume the reserved
// (idle) cores of other container pools, while Danaus service threads
// pinned to a pool's cores never leave them.
package cpu

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CPU is a set of simulated cores scheduled with FIFO admission and
// quantum-sliced round-robin sharing.
type CPU struct {
	eng     *sim.Engine
	params  *model.Params
	cores   []coreState
	waiters []*exec // FIFO runqueue: exec stages waiting for a core
	all     Mask
	groupSz int
	scanRR  int // rotating scan start spreads load across idle cores

	// execPool recycles exec stages (their segment storage), keeping the
	// scheduler hot path free of per-call allocations. Safe without
	// locking: exactly one goroutine runs at any instant in the
	// simulation.
	execPool []*exec

	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder; every executed core
// slice is then mirrored to it as a per-core trace event. Nil detaches.
func (c *CPU) SetRecorder(rec *obs.Recorder) { c.rec = rec }

// kindName renders a TimeKind for trace tags.
func kindName(k TimeKind) string {
	if k == Kernel {
		return "kernel"
	}
	return "user"
}

// recordSlice mirrors one just-charged core slice (ending now) to the
// recorder. Called only at the points that charge busyTime, so the
// trace's per-core tracks reconstruct exactly the scheduler's view.
func (c *CPU) recordSlice(core int, d time.Duration, acct *Account, k TimeKind) {
	if c.rec == nil {
		return
	}
	name := ""
	if acct != nil {
		name = acct.Name
	}
	c.rec.Core(core, c.eng.Now()-d, d, name, kindName(k))
}

type coreState struct {
	busy     bool
	busyTime time.Duration
	occupant *Account // account running on the core while busy
}

// New creates a processor with n cores grouped in pairs sharing cache
// (matching the Opteron 6378 core-pair L2 organization).
func New(eng *sim.Engine, params *model.Params, n int) *CPU {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("cpu: core count %d out of range", n))
	}
	return &CPU{
		eng:     eng,
		params:  params,
		cores:   make([]coreState, n),
		all:     MaskRange(0, n),
		groupSz: 2,
	}
}

// NumCores returns the number of cores.
func (c *CPU) NumCores() int { return len(c.cores) }

// AllMask returns a mask of every core on the host.
func (c *CPU) AllMask() Mask { return c.all }

// GroupOf returns the core-group index (shared-L2 pair) of core id.
func (c *CPU) GroupOf(core int) int { return core / c.groupSz }

// NumGroups returns the number of core groups.
func (c *CPU) NumGroups() int { return (len(c.cores) + c.groupSz - 1) / c.groupSz }

// GroupMask returns the mask of cores in group g.
func (c *CPU) GroupMask(g int) Mask {
	lo := g * c.groupSz
	hi := lo + c.groupSz
	if hi > len(c.cores) {
		hi = len(c.cores)
	}
	return MaskRange(lo, hi) & c.all
}

// Thread is a schedulable entity bound to an Account and an affinity
// mask. Threads are sticky: they prefer the core they last ran on.
type Thread struct {
	cpu      *CPU
	acct     *Account
	mask     Mask
	lastCore int
}

// NewThread creates a thread with the given affinity. A zero mask means
// the thread may run anywhere on the host.
func (c *CPU) NewThread(acct *Account, mask Mask) *Thread {
	if mask == 0 {
		mask = c.all
	}
	return &Thread{cpu: c, acct: acct, mask: mask & c.all, lastCore: -1}
}

// SetAffinity repins the thread to mask (e.g. the front driver pinning
// an application thread to the cores of its first request queue).
func (t *Thread) SetAffinity(mask Mask) {
	if mask != 0 {
		t.mask = mask & t.cpu.all
	}
}

// Affinity returns the current affinity mask.
func (t *Thread) Affinity() Mask { return t.mask }

// LastCore returns the core the thread most recently ran on, or -1.
func (t *Thread) LastCore() int { return t.lastCore }

// Account returns the thread's accounting target.
func (t *Thread) Account() *Account { return t.acct }

// Exec consumes d of CPU time of kind k on a core within the thread's
// affinity mask, waiting FIFO for a core when all are busy and yielding
// the core every scheduler quantum.
//
// An uncontended Exec of at most one quantum is a plain Sleep on the
// acquired core. Any other Exec — longer than a quantum, or queued
// behind busy cores — runs as a one-segment sim.Chain stage: the
// process parks once and the quantum boundaries and runqueue handoffs
// run as engine callbacks. See exec for why the results are
// bit-identical to slicing the work one Sleep per quantum.
func (t *Thread) Exec(p *sim.Proc, k TimeKind, d time.Duration) {
	if d <= 0 {
		return
	}
	c := t.cpu
	core, ok := c.tryAcquire(t)
	if ok && d <= c.params.Quantum {
		p.Sleep(d)
		c.book(p, t, k, core, d)
		c.release(core)
		return
	}
	ch := p.Chain()
	x := c.getExec(ch)
	x.segs = append(x.segs, t.Seg(k, d))
	x.i, x.d, x.core, x.state = 0, d, core, execPicked
	ch.Stage(x).Run()
}

// Seg is one CPU charge of a sequence run by ExecSeq or Charge. The
// Thread methods Seg, BytesSeg, ModeSwitchSeg and ContextSwitchSeg build
// the segment that mirrors Exec, ExecBytes, ModeSwitch and
// ContextSwitch.
type Seg struct {
	t    *Thread
	kind TimeKind
	d    time.Duration
	sw   switchKind // account counter bumped before the charge
}

type switchKind uint8

const (
	noSwitch switchKind = iota
	modeSwitch
	contextSwitch
)

// Seg is the segment form of t.Exec(p, k, d).
func (t *Thread) Seg(k TimeKind, d time.Duration) Seg { return Seg{t: t, kind: k, d: d} }

// BytesSeg is the segment form of t.ExecBytes(p, k, n, bytesPerSec).
func (t *Thread) BytesSeg(k TimeKind, n, bytesPerSec int64) Seg {
	return t.Seg(k, model.RateTime(n, bytesPerSec))
}

// ModeSwitchSeg is the segment form of t.ModeSwitch(p).
func (t *Thread) ModeSwitchSeg() Seg {
	return Seg{t: t, kind: Kernel, d: t.cpu.params.ModeSwitchCost, sw: modeSwitch}
}

// ContextSwitchSeg is the segment form of t.ContextSwitch(p).
func (t *Thread) ContextSwitchSeg() Seg {
	return Seg{t: t, kind: Kernel, d: t.cpu.params.ContextSwitchCost, sw: contextSwitch}
}

// ExecSeq charges segs on p back to back. Its results are exactly those
// of the sequence of Exec, ExecBytes, ModeSwitch and ContextSwitch calls
// the segments mirror, but p parks once for the whole sequence: the
// segments may run on different threads (a FUSE reply spans the daemon
// thread and the application thread) and each boundary between them is
// an engine callback, not a resume of p. Use it wherever charges follow
// each other with no other simulation primitive in between; Charge
// puts them in a chain with such primitives.
func (c *CPU) ExecSeq(p *sim.Proc, segs ...Seg) {
	c.Charge(p.Chain(), segs...).Run()
}

// Charge appends segs to ch as one stage, charged as ExecSeq charges
// them.
func (c *CPU) Charge(ch *sim.Chain, segs ...Seg) *sim.Chain {
	x := c.getExec(ch)
	x.segs = append(x.segs, segs...)
	x.i, x.state = -1, execStart
	return ch.Stage(x)
}

// exec is the chain stage of a sequence of CPU charges, from its first
// core acquisition to its last release. It is event-for-event
// identical to running each segment as its own acquire → Sleep(slice)
// → release loop, one quantum at a time: wherever that loop pushed one
// engine event — the wake of a slice's Sleep, or the wake by which
// release handed a freed core to a queued process — the stage has the
// chain push its wake with the same timestamp at the same point in seq
// order. What the loop did in the process between two such events
// (charge the slice, release the core, bump the next segment's
// counter, try to acquire its core) Advance does in the same order.
// sim.Chain turns the loop's resumes into callbacks one for one.
type exec struct {
	c     *CPU
	ch    *sim.Chain
	segs  []Seg
	i     int           // segment in flight
	d     time.Duration // work left in segment i, including the in-flight slice
	core  int           // core of the in-flight slice
	slice time.Duration // length of the in-flight slice
	state execState

	// The runqueue wait in progress: when it began and the account to
	// blame, captured at enqueue time.
	queuedAt time.Duration
	aggr     string
}

type execState uint8

const (
	// execStart: move to the first segment with work and acquire a core.
	execStart execState = iota
	// execPicked: Exec has tried for a core already, holding core if >= 0.
	execPicked
	// execSlice: a slice is in flight on core.
	execSlice
	// execQueued: waiting in the runqueue; release sets core.
	execQueued
)

// Advance implements sim.Stage.
func (x *exec) Advance(*sim.Chain) bool {
	c := x.c
	switch x.state {
	case execSlice:
		s := &x.segs[x.i]
		c.book(x.ch.Proc(), s.t, s.kind, x.core, x.slice)
		x.d -= x.slice
		c.release(x.core)
		if x.d == 0 && !x.next() {
			// Trailing zero-length segments bumped their counters.
			c.putExec(x)
			return true
		}
	case execQueued:
		x.ch.Proc().ReportWait("runq", "cpu", x.aggr, 0, c.eng.Now()-x.queuedAt)
		x.arm()
		return false
	case execStart:
		if !x.next() {
			// Nothing to charge: the segments only bump counters.
			c.putExec(x)
			return true
		}
	case execPicked:
		if x.core < 0 {
			x.enqueue()
		} else {
			x.arm()
		}
		return false
	}
	core, ok := c.tryAcquire(x.segs[x.i].t)
	if !ok {
		x.enqueue()
		return false
	}
	x.core = core
	x.arm()
	return false
}

// next moves to the next segment with work, bumping the account counter
// of every segment it enters. It reports false when none is left.
func (x *exec) next() bool {
	for x.i++; x.i < len(x.segs); x.i++ {
		s := &x.segs[x.i]
		switch s.sw {
		case modeSwitch:
			s.t.acct.modeSwitches++
		case contextSwitch:
			s.t.acct.contextSwitches++
		}
		if s.d > 0 {
			x.d = s.d
			return true
		}
	}
	return false
}

// arm starts the next slice of segment i on x.core; its end is the
// chain's next wake.
func (x *exec) arm() {
	x.slice = min(x.d, x.c.params.Quantum)
	x.state = execSlice
	x.ch.WakeAfter(x.slice)
}

// enqueue queues x FIFO for a core for segment i. A later release hands
// it one and wakes the chain.
func (x *exec) enqueue() {
	c := x.c
	x.state = execQueued
	x.queuedAt = c.eng.Now()
	x.aggr = ""
	if c.eng.HasWaitObserver() {
		x.aggr = c.runqAggressor(x.segs[x.i].t)
	}
	c.waiters = append(c.waiters, x)
}

// book books the slice of length d that t just ran on core.
func (c *CPU) book(p *sim.Proc, t *Thread, k TimeKind, core int, d time.Duration) {
	c.cores[core].busyTime += d
	t.acct.addTime(k, d)
	t.lastCore = core
	c.recordSlice(core, d, t.acct, k)
	p.ReportWait("run", "cpu", "", 0, d)
}

func (c *CPU) getExec(ch *sim.Chain) *exec {
	var x *exec
	if n := len(c.execPool); n > 0 {
		x = c.execPool[n-1]
		c.execPool = c.execPool[:n-1]
	} else {
		x = &exec{c: c}
	}
	x.ch = ch
	return x
}

func (c *CPU) putExec(x *exec) {
	clear(x.segs)
	x.segs = x.segs[:0]
	x.ch = nil
	c.execPool = append(c.execPool, x)
}

// ExecBytes consumes CPU time equivalent to processing n bytes at the
// given single-core rate.
func (t *Thread) ExecBytes(p *sim.Proc, k TimeKind, n, bytesPerSec int64) {
	t.Exec(p, k, model.RateTime(n, bytesPerSec))
}

// ModeSwitch charges one user/kernel crossing to the thread.
func (t *Thread) ModeSwitch(p *sim.Proc) {
	t.acct.modeSwitches++
	t.Exec(p, Kernel, t.cpu.params.ModeSwitchCost)
}

// ContextSwitch charges one thread switch to the thread's account.
func (t *Thread) ContextSwitch(p *sim.Proc) {
	t.acct.contextSwitches++
	t.Exec(p, Kernel, t.cpu.params.ContextSwitchCost)
}

// runqAggressor names the account to blame for a core-acquisition wait
// beginning now: the occupant of a busy core inside the waiter's mask,
// preferring an account different from the waiter's own (that is the
// core-theft case the paper measures — e.g. a host-wide kernel flusher
// squatting on a pool's reserved cores). Ties break on the lowest core
// index, keeping attribution deterministic.
func (c *CPU) runqAggressor(t *Thread) string {
	self := ""
	for w := uint64(t.mask); w != 0; w &= w - 1 {
		core := bits.TrailingZeros64(w)
		cs := &c.cores[core]
		if !cs.busy || cs.occupant == nil {
			continue
		}
		if cs.occupant != t.acct {
			return cs.occupant.Name
		}
		if self == "" {
			self = cs.occupant.Name
		}
	}
	return self
}

// tryAcquire claims an idle core in the thread's mask without blocking.
// Fast path: sticky core, then a rotating scan so unpinned threads
// (e.g. kernel flushers) spread across every idle core of the host
// instead of clustering on the lowest-numbered ones. The scan walks the
// mask with bit operations — ascending core order starting at the
// scanRR-th set bit, wrapping — visiting exactly the sequence the
// former Cores()-slice scan produced, without the allocation.
func (c *CPU) tryAcquire(t *Thread) (int, bool) {
	if t.lastCore >= 0 && t.mask.Has(t.lastCore) && !c.cores[t.lastCore].busy {
		c.cores[t.lastCore].busy = true
		c.cores[t.lastCore].occupant = t.acct
		return t.lastCore, true
	}
	if t.mask != 0 {
		start := c.scanRR % t.mask.Count()
		c.scanRR++
		// rest holds the set bits from the start-th onward; the wrapped
		// remainder is the cleared lower bits.
		rest := uint64(t.mask)
		for i := 0; i < start; i++ {
			rest &= rest - 1
		}
		for _, w := range [2]uint64{rest, uint64(t.mask) &^ rest} {
			for ; w != 0; w &= w - 1 {
				core := bits.TrailingZeros64(w)
				if !c.cores[core].busy {
					c.cores[core].busy = true
					c.cores[core].occupant = t.acct
					return core, true
				}
			}
		}
	}
	return -1, false
}

// release frees core, or hands it straight to the oldest queued stage
// whose thread may run there: the core stays busy, and the stage's
// chain wake, which starts its slice, goes in the same (now, seq) slot
// where a wake of the queued process used to go.
func (c *CPU) release(core int) {
	for i, x := range c.waiters {
		if t := x.segs[x.i].t; t.mask.Has(core) {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			x.core = core
			c.cores[core].occupant = t.acct
			x.ch.Wake()
			return
		}
	}
	c.cores[core].busy = false
	c.cores[core].occupant = nil
}

// UtilSnapshot captures each core's cumulative busy time.
func (c *CPU) UtilSnapshot() []time.Duration {
	out := make([]time.Duration, len(c.cores))
	for i := range c.cores {
		out[i] = c.cores[i].busyTime
	}
	return out
}

// Utilization returns the summed utilization of the cores in mask over
// the window since the given snapshot, as a fraction of ONE core (so a
// fully busy 2-core mask reports 2.0, rendered as 200%).
func (c *CPU) Utilization(mask Mask, since []time.Duration, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	var busy time.Duration
	for w := uint64(mask); w != 0; w &= w - 1 {
		core := bits.TrailingZeros64(w)
		busy += c.cores[core].busyTime - since[core]
	}
	return float64(busy) / float64(window)
}
