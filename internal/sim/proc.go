package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: a goroutine that runs only when resumed
// by the engine and parks whenever it blocks on a simulated primitive.
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	eng    *Engine
	name   string
	id     int
	resume chan struct{}
	done   bool
	// pendingWake guards the one-pending-wake invariant of the engine.
	pendingWake bool

	// wakeReason carries out-of-band information from whoever woke the
	// process (e.g. whether a timed wait expired).
	wakeReason wakeReason

	// until is the WaitUntil wait p is parked in, if any: the engine
	// re-checks its condition when p's wake is popped.
	until *qWaiter
	// chain is the chain p runs, if any: the engine continues it when
	// p's wake is popped, and resumes p only once it is complete.
	chain *Chain
}

type wakeReason int

const (
	wakeNormal wakeReason = iota
	wakeTimeout
)

// Name returns the debug name given to Go.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id assigned by the engine.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Park hands control back to the engine and blocks until another
// component calls Engine.ScheduleWake(p). It is the block half of the
// Park/ScheduleWake pair for building custom primitives; the caller is
// responsible for ensuring someone will wake the process.
func (p *Proc) Park() { p.park() }

// park hands control back to the engine and blocks until resumed.
//
// Fast path: before paying the two channel handoffs of a goroutine
// round trip, the parking process executes elidable pending events
// inline — engine callbacks, timeouts, WaitUntil wakes whose re-check
// fails (see qWaiter.recheck), wakes that continue a chain without
// completing it (see Chain.fire), and its own wake. These are exactly the
// events the engine loop would process next, popped in identical heap
// order with identical clock, trace, and seq effects, so the inline
// path is indistinguishable from the parked one except in wall-clock
// cost. An event that resumes a different process is never elidable
// (it must run on that process's goroutine), and inline execution
// respects the engine's RunUntil deadline.
func (p *Proc) park() wakeReason {
	e := p.eng
	handedOff := false
	for !handedOff {
		if e.timerFirst() {
			if e.deadline >= 0 && e.timers[0].at > e.deadline {
				break
			}
			e.fireTimer()
			continue
		}
		if len(e.events) == 0 || e.deadline >= 0 && e.events[0].at > e.deadline {
			break
		}
		ev := e.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.fn != nil {
			e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
			e.stats.Callbacks++
			ev.fn()
			continue
		}
		q := ev.p
		if q.until != nil && q.until.recheck() {
			continue
		}
		if q.chain != nil && q.chain.fire() {
			continue
		}
		e.trace(TraceEvent{At: e.now, Kind: TraceResume, Proc: q.name, ProcID: q.id})
		e.stats.Resumes++
		if q == p {
			// Own wake reached: resume inline, never having parked.
			e.stats.InlineWakes++
			p.pendingWake = false
			r := p.wakeReason
			p.wakeReason = wakeNormal
			return r
		}
		// The next event resumes another process: switch to it
		// directly — one goroutine handoff instead of two via the
		// engine loop.
		if q.done {
			panic(fmt.Sprintf("sim: resuming finished proc %s", q.name))
		}
		e.stats.Handoffs++
		q.pendingWake = false
		e.running = q
		q.resume <- struct{}{}
		handedOff = true
	}
	if !handedOff {
		// Heap drained (or deadline reached): return control to the
		// engine loop.
		e.running = nil
		e.parked <- struct{}{}
	}
	<-p.resume
	r := p.wakeReason
	p.wakeReason = wakeNormal
	return r
}

// ReportWait reports a wait interval that ended at the current virtual
// time to the engine's wait observer, if one is installed. Primitives
// call it after the fact — once the blocked process has resumed and
// knows how long it waited — so reporting never interacts with the
// park/wake machinery.
func (p *Proc) ReportWait(kind, resource, holder string, holderID int, dur time.Duration) {
	if p.eng.waitObs == nil || dur <= 0 {
		return
	}
	p.eng.waitObs(p, kind, resource, holder, holderID, p.eng.now-dur, dur)
}

// Sleep advances this process's virtual time by d without consuming any
// simulated resource.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		d = 0
	}
	p.eng.scheduleWake(p, p.eng.now+d)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// runnable work at the same timestamp execute first. When no such work
// exists the park/resume round trip is elided entirely.
func (p *Proc) Yield() {
	p.eng.scheduleWake(p, p.eng.now)
	p.park()
}
