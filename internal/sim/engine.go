// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock over a heap of pending events.
// Simulated processes (Proc) are goroutines that cooperatively hand
// control back to the engine whenever they block on a simulated
// primitive (Sleep, Mutex, WaitQueue, Resource). Exactly one goroutine
// — either the engine loop or a single resumed process — runs at any
// instant, so simulations are fully deterministic: two runs with the
// same seeds produce identical event orders and identical virtual
// timestamps.
package sim

import (
	"fmt"
	"time"
)

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	timers timerHeap // pending WaitQueue timeouts, merged with events by (at, seq)

	// deadline is the bound of the RunUntil call currently draining the
	// heap (negative: run to exhaustion). Processes consult it when
	// executing elidable events inline — see Proc.park — so inline
	// execution never runs past the engine loop's own stopping point.
	deadline time.Duration

	// parked receives a token whenever the currently running process
	// blocks or terminates, returning control to the engine loop.
	parked chan struct{}

	running    *Proc // process currently executing, nil inside the loop
	liveProcs  int   // processes started and not yet finished
	nextProcID int

	tracer  func(TraceEvent) // optional observer, see SetTracer
	waitObs WaitFn           // optional wait observer, see SetWaitObserver

	// chainPool recycles chains (their segment storage), keeping chained
	// steps free of per-call allocations. Safe without locking: exactly
	// one goroutine runs at any instant in the simulation.
	chainPool []*Chain

	stats Stats
}

// Stats counts the engine's own work. The counters are always on and
// are plain increments, so reading them never changes the schedule.
type Stats struct {
	// Callbacks and Resumes count the events traced as TraceCallback
	// and TraceResume. An absorbed WaitUntil wake is a callback, and so
	// is a chained process's wake that continues its chain (see Chain).
	Callbacks uint64
	Resumes   uint64
	// Resumes split by who runs the resumed process. InlineWakes are a
	// parking process reaching its own wake in Proc.park and running on
	// without a goroutine switch. Handoffs are a parking process
	// switching straight to another one, one goroutine switch. The rest,
	// Resumes - InlineWakes - Handoffs, are resumes by the engine loop,
	// two switches each.
	InlineWakes uint64
	Handoffs    uint64
	// ProcsSpawned counts the processes Go started; ProcsLive those of
	// them not yet returned.
	ProcsSpawned uint64
	ProcsLive    uint64
	// WakesAbsorbed counts WaitUntil wakes whose re-check found the
	// condition still false: the waiter was re-queued by the engine
	// without a goroutine switch.
	WakesAbsorbed uint64
	// Timeouts of WaitTimeout and WaitUntil waits. Every armed timeout
	// is cancelled by an earlier wake, fires, or is still pending:
	// TimeoutsArmed == TimeoutsCancelled + TimeoutsFired + TimeoutsPending.
	TimeoutsArmed     uint64
	TimeoutsCancelled uint64
	TimeoutsFired     uint64
	TimeoutsPending   uint64
	// High-water marks of the event heap and the timer heap.
	EventHeapHigh int
	TimerHeapHigh int
}

// Stats returns the engine's self-counters so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.TimeoutsPending = uint64(len(e.timers))
	s.ProcsLive = uint64(e.liveProcs)
	return s
}

// WaitFn observes one completed wait interval of a process: kind names
// the primitive ("lock", "runq", "run", "net", "osd", "mds", "disk",
// "waitq"), resource the contended object, and holder the party that
// occupied it ("" when not applicable). holderID is the process id of
// the holder when the holder is a process (0 otherwise — e.g. a
// runqueue aggressor is an account, not a process); observers use it to
// resolve the holder to the request it was serving. start is when the
// wait began; start+dur is always the current virtual time.
type WaitFn func(p *Proc, kind, resource, holder string, holderID int, start, dur time.Duration)

// SetWaitObserver installs fn as the engine's wait observer. Waits are
// reported passively — observation schedules no events and reads only
// the virtual clock — so an installed observer never perturbs the
// simulation schedule. A nil fn removes the observer.
func (e *Engine) SetWaitObserver(fn WaitFn) { e.waitObs = fn }

// HasWaitObserver reports whether a wait observer is installed. Callers
// use it to skip attribution work (e.g. scanning for the aggressor of a
// runqueue wait) that only matters when someone is listening.
func (e *Engine) HasWaitObserver() bool { return e.waitObs != nil }

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{
		parked:   make(chan struct{}),
		deadline: -1,
		// Pre-size the heap so steady-state event churn never grows it.
		events: make(eventHeap, 0, 256),
	}
}

// Now returns the current virtual time since the start of the simulation.
func (e *Engine) Now() time.Duration { return e.now }

// LiveProcs returns the number of processes that have been started and
// have not yet returned. Useful in tests to detect leaked processes.
func (e *Engine) LiveProcs() int { return e.liveProcs }

// After schedules fn to run on the engine loop at now+d. Callbacks must
// not block on simulation primitives; spawn a Proc for that.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.push(event{at: e.now + d, fn: fn})
}

// Go starts a new simulated process running fn. The process begins
// executing at the current virtual time, after the caller next yields
// to the engine. Go may be called before Run, from engine callbacks, or
// from inside another process.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.nextProcID++
	p := &Proc{
		eng:    e,
		name:   name,
		id:     e.nextProcID,
		resume: make(chan struct{}),
	}
	e.liveProcs++
	e.stats.ProcsSpawned++
	go func() {
		// The deferred handoff also covers runtime.Goexit (e.g. a
		// t.Fatal inside a simulated process): the engine regains
		// control instead of deadlocking on a lost park token. The
		// finish trace is emitted here rather than by the engine loop
		// because a process may have been resumed by a direct handoff
		// from a sibling process, not by the loop.
		defer func() {
			p.done = true
			e.liveProcs--
			e.trace(TraceEvent{At: e.now, Kind: TraceFinish, Proc: p.name, ProcID: p.id})
			e.running = nil
			e.parked <- struct{}{}
		}()
		<-p.resume
		fn(p)
	}()
	e.push(event{at: e.now, p: p})
	return p
}

// Run processes events until the event heap is empty. Processes that
// remain blocked on simulated primitives when the heap drains are left
// parked; LiveProcs reports them.
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to deadline. A negative deadline means run to exhaustion.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.deadline = deadline
	for {
		if e.timerFirst() {
			if deadline >= 0 && e.timers[0].at > deadline {
				break
			}
			e.fireTimer()
			continue
		}
		if len(e.events) == 0 || deadline >= 0 && e.events[0].at > deadline {
			break
		}
		ev := e.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		switch {
		case ev.fn != nil:
			e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
			e.stats.Callbacks++
			ev.fn()
		case ev.p != nil:
			if ev.p.until != nil && ev.p.until.recheck() {
				continue
			}
			if ev.p.chain != nil && ev.p.chain.fire() {
				continue
			}
			e.trace(TraceEvent{At: e.now, Kind: TraceResume, Proc: ev.p.name, ProcID: ev.p.id})
			e.stats.Resumes++
			e.resumeProc(ev.p)
		}
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) resumeProc(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished proc %s", p.name))
	}
	p.pendingWake = false
	e.running = p
	p.resume <- struct{}{}
	<-e.parked
}

// ScheduleWake arranges for p to resume at the current virtual time.
// It is the wake half of the Park/ScheduleWake pair used by packages
// that build their own blocking primitives on top of the engine.
func (e *Engine) ScheduleWake(p *Proc) {
	e.scheduleWake(p, e.now)
}

// scheduleWake arranges for p to resume at absolute time at. A parked
// process must have exactly one pending wake: double wakes corrupt the
// park/resume pairing, so they are rejected loudly.
func (e *Engine) scheduleWake(p *Proc, at time.Duration) {
	if p.pendingWake {
		panic(fmt.Sprintf("sim: double wake for proc %s", p.name))
	}
	p.pendingWake = true
	if at < e.now {
		at = e.now
	}
	e.push(event{at: at, p: p})
}

func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
	if n := len(e.events); n > e.stats.EventHeapHigh {
		e.stats.EventHeapHigh = n
	}
}

func (e *Engine) pop() event { return e.events.pop() }
