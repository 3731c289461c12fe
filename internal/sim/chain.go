package sim

import "time"

// Chain runs a sequence of blocking steps for one process with at most
// one park of its goroutine. The steps are segments: a timed sleep, the
// lock and unlock of a Mutex, the acquire of a Resource, a non-blocking
// func, and stages that other packages define (cpu adds its core slices
// and runqueue waits as a Stage). A process builds a chain with
// Proc.Chain, appends segments, and calls Run.
//
// The chain is event-for-event identical to the loop form: the same
// segments run one by one in the process, each Sleep, contended Lock
// and contended Acquire parking it. Wherever the loop form pushed one
// engine event — the wake of a Sleep, the wake by which Unlock handed
// the lock to a queued process, the wake by which Release admitted one
// — the chain pushes the same event at the same point in seq order:
// the chained process's wake. When the engine pops it, it continues
// the chain in place (Proc.chain) instead of resuming the goroutine,
// so the segments the loop form ran in the process between two wakes
// run in the same order inside one engine callback. Only the event
// that finds the chain complete resumes the process. The event heap
// breaks timestamp ties by seq, so the interleaving with every other
// process and every virtual-time result are unchanged; the loop form's
// resumes of this process become callbacks one for one.
//
// Chains are pooled per engine: a chain must not be used after Run.
type Chain struct {
	eng  *Engine
	p    *Proc
	segs []segment
	i    int // segment in progress

	// waiting is set while segment i has parked the chain: its wake
	// continues that segment rather than starting it.
	waiting bool
	// The lock wait in progress: when it began, and the holder at
	// enqueue, whom blame attribution charges (see Mutex.Lock).
	since  time.Duration
	holder *Proc
}

// Stage is a chain segment defined by another package. Advance runs the
// stage from where it stands and reports whether it is complete. When
// it is not, it has arranged exactly one wake of the chain — Wake,
// WakeAfter, or a queue of its own that calls Wake later — and Advance
// runs again at that wake. Advance runs on whichever goroutine drives
// the engine at that moment, so it must not block.
type Stage interface {
	Advance(ch *Chain) bool
}

// LockWaiter is told the wait of a chained Lock once the lock is
// granted, zero when it was free (obs.Span implements it).
type LockWaiter interface {
	LockWait(lock string, wait time.Duration)
}

type segOp uint8

const (
	segSleep segOp = iota
	segLock
	segUnlock
	segAcquire
	segFunc
	segStage
)

type segment struct {
	op    segOp
	d     time.Duration // Sleep length
	n     int64         // Acquire units
	m     *Mutex
	r     *Resource
	fn    func(*Chain) bool
	stage Stage
	w     LockWaiter
	label string // LockObserved's name for the lock
}

// Chain returns an empty chain that runs its segments for p.
func (p *Proc) Chain() *Chain {
	e := p.eng
	var ch *Chain
	if n := len(e.chainPool); n > 0 {
		ch = e.chainPool[n-1]
		e.chainPool = e.chainPool[:n-1]
	} else {
		ch = &Chain{eng: e}
	}
	ch.p = p
	return ch
}

// Proc returns the process the chain runs for.
func (ch *Chain) Proc() *Proc { return ch.p }

// Sleep appends a sleep of d, the segment form of Proc.Sleep.
func (ch *Chain) Sleep(d time.Duration) *Chain {
	s := ch.add(segSleep)
	s.d = d
	return ch
}

// Lock appends the acquisition of m, the segment form of Mutex.Lock.
func (ch *Chain) Lock(m *Mutex) *Chain {
	ch.add(segLock).m = m
	return ch
}

// LockObserved is Lock that also tells w, under label, how long the
// acquisition waited once it is granted.
func (ch *Chain) LockObserved(m *Mutex, label string, w LockWaiter) *Chain {
	s := ch.add(segLock)
	s.m, s.w, s.label = m, w, label
	return ch
}

// Unlock appends the release of m, the segment form of Mutex.Unlock.
func (ch *Chain) Unlock(m *Mutex) *Chain {
	ch.add(segUnlock).m = m
	return ch
}

// Acquire appends a claim of n units of r, the segment form of
// Resource.Acquire.
func (ch *Chain) Acquire(r *Resource, n int64) *Chain {
	s := ch.add(segAcquire)
	s.r, s.n = r, n
	return ch
}

// Func appends a call of fn, which must not block. fn may append more
// segments to ch, and ends the chain early by returning false. A chain
// that a Func keeps extending (a link transfer, chunk by chunk) stays
// short: the segments already run are dropped before fn is called.
func (ch *Chain) Func(fn func(*Chain) bool) *Chain {
	ch.add(segFunc).fn = fn
	return ch
}

// Stage appends s.
func (ch *Chain) Stage(s Stage) *Chain {
	ch.add(segStage).stage = s
	return ch
}

// add appends a segment of kind op and returns it. The storage past
// len(ch.segs) is always zero — Run and the compaction in advance clear
// what they drop — so a reused slot needs no zeroing or copying.
func (ch *Chain) add(op segOp) *segment {
	n := len(ch.segs)
	if n < cap(ch.segs) {
		ch.segs = ch.segs[:n+1]
	} else {
		ch.segs = append(ch.segs, segment{})
	}
	s := &ch.segs[n]
	s.op = op
	return s
}

// Wake arranges the wake that continues the chain at the current
// virtual time. Only a Stage that is not complete calls it, once.
func (ch *Chain) Wake() { ch.eng.scheduleWake(ch.p, ch.eng.now) }

// WakeAfter arranges the wake that continues the chain at now+d.
func (ch *Chain) WakeAfter(d time.Duration) { ch.eng.scheduleWake(ch.p, ch.eng.now+max(d, 0)) }

// Run runs the chain's segments for its process and returns once they
// are done. The process parks at most once: at the first segment that
// blocks. The chain goes back to the pool.
func (ch *Chain) Run() {
	p := ch.p
	if p.chain != nil {
		panic("sim: nested chain run by proc " + p.name)
	}
	p.chain = ch
	if !ch.advance() {
		p.park()
	}
	p.chain = nil
	clear(ch.segs)
	ch.segs = ch.segs[:0]
	ch.i, ch.waiting, ch.holder, ch.p = 0, false, nil, nil
	ch.eng.chainPool = append(ch.eng.chainPool, ch)
}

// fire continues the chain at the wake its parked segment arranged;
// the engine calls it when it pops the process's wake. It reports
// whether the chain parked again, making the wake an engine callback.
// Otherwise the chain is complete, and the wake resumes the process.
// The callback is traced after the segments ran: they never trace.
func (ch *Chain) fire() bool {
	e := ch.eng
	ch.p.pendingWake = false
	if ch.advance() {
		return false
	}
	e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
	e.stats.Callbacks++
	return true
}

// advance runs segments from the one in progress until one blocks,
// reporting false, or none is left.
func (ch *Chain) advance() bool {
	e, p := ch.eng, ch.p
	resumed := ch.waiting
	ch.waiting = false
	for ; ch.i < len(ch.segs); ch.i++ {
		s := &ch.segs[ch.i]
		switch s.op {
		case segSleep:
			if !resumed {
				e.scheduleWake(p, e.now+max(s.d, 0))
				ch.waiting = true
				return false
			}
		case segLock:
			if resumed {
				s.m.granted(p, ch.since, ch.holder)
				ch.holder = nil
			} else {
				ch.since = e.now
				if ch.holder = s.m.lockOrQueue(p); ch.holder != nil {
					ch.waiting = true
					return false
				}
			}
			if s.w != nil {
				s.w.LockWait(s.label, e.now-ch.since)
			}
		case segUnlock:
			s.m.Unlock(p)
		case segAcquire:
			if !resumed && !s.r.acquireOrQueue(p, s.n) {
				ch.waiting = true
				return false
			}
		case segFunc:
			fn := s.fn
			if ch.i > 0 {
				k := copy(ch.segs, ch.segs[ch.i:])
				clear(ch.segs[k:])
				ch.segs = ch.segs[:k]
				ch.i = 0
			}
			// fn may append segments, moving ch.segs: s is not used after.
			if !fn(ch) {
				ch.i = len(ch.segs)
				return true
			}
		case segStage:
			if !s.stage.Advance(ch) {
				ch.waiting = true
				return false
			}
		}
		resumed = false
	}
	return true
}
