package sim

import "time"

// WaitQueue is a condition-variable-like primitive. Because only one
// process runs at a time in virtual time, the usual lost-wakeup races
// do not exist: callers re-check their condition in a loop around Wait,
// or hand the re-check to the engine with WaitUntil.
type WaitQueue struct {
	eng     *Engine
	name    string
	waiters []*qWaiter
}

type qWaiter struct {
	p *Proc
	q *WaitQueue

	// Timeout, when armed: the deadline, its seq in the engine's event
	// order, and the position in the engine's timer heap (-1 when no
	// timeout is pending).
	at  time.Duration
	seq uint64
	idx int

	d     time.Duration // timeout of each wait
	since time.Duration // start of the current wait

	ready func() bool // WaitUntil's condition
}

// NewWaitQueue creates a named wait queue on e.
func NewWaitQueue(e *Engine, name string) *WaitQueue {
	return &WaitQueue{eng: e, name: name}
}

// Wait parks p until Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(p *Proc) {
	w := &qWaiter{p: p, q: q, idx: -1}
	q.waiters = append(q.waiters, w)
	since := q.eng.now
	p.park()
	p.ReportWait("waitq", q.name, "", 0, q.eng.now-since)
}

// WaitTimeout parks p until signalled or until d elapses. It reports
// whether the wait timed out. A waiter woken before d elapses removes
// its timeout.
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) (timedOut bool) {
	w := &qWaiter{p: p, q: q, d: d}
	q.enqueue(w)
	timedOut = p.park() == wakeTimeout
	p.ReportWait("waitq", q.name, "", 0, q.eng.now-w.since)
	return timedOut
}

// WaitUntil waits on q until ready reports true. It behaves exactly as
//
//	for !ready() {
//		q.WaitTimeout(p, d)
//	}
//
// — the same wakes in the same order, the same wait intervals reported,
// the same timeouts — except that the engine runs the re-check when p's
// wake comes due. A wake that finds ready still false re-queues p at
// the tail with a fresh timeout without resuming its goroutine; the
// engine traces it as a callback and counts it in Stats.WakesAbsorbed.
//
// ready must be pure: it reads simulation state and nothing else. It
// must not block, schedule events or charge CPU time, because it runs
// on whichever goroutine is driving the engine at that moment.
func (q *WaitQueue) WaitUntil(p *Proc, d time.Duration, ready func() bool) {
	if ready() {
		return
	}
	w := &qWaiter{p: p, q: q, d: d, ready: ready}
	q.enqueue(w)
	p.until = w
	p.park()
	p.until = nil
	p.ReportWait("waitq", q.name, "", 0, q.eng.now-w.since)
}

// enqueue appends w at the tail with its timeout armed.
func (q *WaitQueue) enqueue(w *qWaiter) {
	q.waiters = append(q.waiters, w)
	q.eng.armTimer(w)
	w.since = q.eng.now
}

// wake wakes w now, removing its pending timeout.
func (q *WaitQueue) wake(w *qWaiter) {
	q.eng.cancelTimer(w)
	q.eng.scheduleWake(w.p, q.eng.now)
}

// expire is w's timeout firing: w leaves the queue and resumes with
// a timed-out wake.
func (q *WaitQueue) expire(w *qWaiter) {
	q.remove(w)
	w.p.wakeReason = wakeTimeout
	q.eng.scheduleWake(w.p, q.eng.now)
}

// recheck runs the re-check of a WaitUntil waiter whose wake was just
// popped. If the condition is still false it does what the loop form's
// process would do on waking — report the wait that ended, re-queue at
// the tail, re-arm the timeout — and reports true: the wake is absorbed
// and the process stays parked.
func (w *qWaiter) recheck() bool {
	if w.ready() {
		return false
	}
	p, e := w.p, w.q.eng
	p.pendingWake = false
	p.wakeReason = wakeNormal
	e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
	e.stats.Callbacks++
	e.stats.WakesAbsorbed++
	p.ReportWait("waitq", w.q.name, "", 0, e.now-w.since)
	w.q.enqueue(w)
	return true
}

// Signal wakes the oldest waiter, if any. It reports whether a waiter
// was woken.
func (q *WaitQueue) Signal() bool {
	if len(q.waiters) == 0 {
		return false
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	q.wake(w)
	return true
}

// Broadcast wakes every current waiter.
func (q *WaitQueue) Broadcast() {
	for _, w := range q.waiters {
		q.wake(w)
	}
	q.waiters = q.waiters[:0]
}

// Len returns the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) }

func (q *WaitQueue) remove(target *qWaiter) {
	for i, w := range q.waiters {
		if w == target {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}
