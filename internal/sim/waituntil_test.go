package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// untilRun is what one run of the WaitUntil equivalence scenario
// produced: the (time, proc) of every wait that ended with its
// condition true, the wait intervals the observer saw, the final clock
// and the engine's counters.
type untilRun struct {
	ready []string
	waits []waitRec
	end   time.Duration
	stats Stats
}

// runUntilScenario drives waiters on three shared conditions against
// togglers that flip them and Signal, Broadcast or stay silent, with
// short timeouts so many waits expire. With engineSide false every
// waiter re-checks in its own loop around WaitTimeout; with it true it
// calls WaitUntil. Every process draws from its own seeded stream, so
// a schedule divergence shows up as different records, not as a
// reshuffled random sequence.
func runUntilScenario(seed int64, engineSide bool) untilRun {
	e := NewEngine()
	q := NewWaitQueue(e, "cond")
	var r untilRun
	e.SetWaitObserver(func(p *Proc, kind, resource, holder string, _ int, start, dur time.Duration) {
		r.waits = append(r.waits, waitRec{p.Name(), kind, resource, holder, start, dur})
	})
	var flags [3]bool
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		e.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			for round := 0; round < 20; round++ {
				c := rng.Intn(len(flags))
				d := time.Duration(1+rng.Intn(5)) * time.Millisecond
				ready := func() bool { return flags[c] }
				if engineSide {
					q.WaitUntil(p, d, ready)
				} else {
					for !ready() {
						q.WaitTimeout(p, d)
					}
				}
				r.ready = append(r.ready, fmt.Sprintf("%v %s", p.Now(), p.Name()))
				if rng.Intn(2) == 0 {
					flags[c] = false // consume the condition
				}
				p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		})
	}
	for j := 0; j < 2; j++ {
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(j)))
		e.Go(fmt.Sprintf("toggler%d", j), func(p *Proc) {
			for {
				p.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				flags[rng.Intn(len(flags))] = rng.Intn(3) > 0
				switch rng.Intn(3) {
				case 0:
					q.Signal()
				case 1:
					q.Broadcast()
				}
			}
		})
	}
	e.RunUntil(150 * time.Millisecond)
	r.end = e.Now()
	r.stats = e.Stats()
	return r
}

// TestWaitUntilMatchesLoopForm is the equivalence contract of
// WaitUntil: on random schedules it produces the same ready resumes,
// the same wait intervals, the same timeouts and the same final clock
// as the loop form, and every absorbed wake is a resume the loop form
// pays and WaitUntil traces as a callback instead.
func TestWaitUntilMatchesLoopForm(t *testing.T) {
	var absorbed, fired, cancelled uint64
	for seed := int64(1); seed <= 40; seed++ {
		loop, until := runUntilScenario(seed, false), runUntilScenario(seed, true)
		if !reflect.DeepEqual(loop.ready, until.ready) {
			i := 0
			for i < len(loop.ready) && i < len(until.ready) && loop.ready[i] == until.ready[i] {
				i++
			}
			t.Fatalf("seed %d: ready resumes differ from #%d of %d/%d:\n loop  %v\n until %v",
				seed, i, len(loop.ready), len(until.ready), loop.ready[i:], until.ready[i:])
		}
		if !reflect.DeepEqual(loop.waits, until.waits) {
			t.Fatalf("seed %d: wait intervals differ (%d vs %d)", seed, len(loop.waits), len(until.waits))
		}
		if loop.end != until.end {
			t.Fatalf("seed %d: final clock %v vs %v", seed, loop.end, until.end)
		}
		ls, us := loop.stats, until.stats
		if ls.TimeoutsArmed != us.TimeoutsArmed || ls.TimeoutsCancelled != us.TimeoutsCancelled ||
			ls.TimeoutsFired != us.TimeoutsFired || ls.TimeoutsPending != us.TimeoutsPending {
			t.Fatalf("seed %d: timeouts differ:\n loop  %+v\n until %+v", seed, ls, us)
		}
		if ls.WakesAbsorbed != 0 || ls.Resumes-us.Resumes != us.WakesAbsorbed ||
			ls.Callbacks+us.WakesAbsorbed != us.Callbacks {
			t.Fatalf("seed %d: absorbed wakes do not account for the resume difference:\n loop  %+v\n until %+v", seed, ls, us)
		}
		if us.TimeoutsArmed != us.TimeoutsCancelled+us.TimeoutsFired+us.TimeoutsPending {
			t.Fatalf("seed %d: timeout ledger does not balance: %+v", seed, us)
		}
		absorbed += us.WakesAbsorbed
		fired += us.TimeoutsFired
		cancelled += us.TimeoutsCancelled
	}
	if absorbed == 0 || fired == 0 || cancelled == 0 {
		t.Fatalf("scenario too tame: absorbed=%d fired=%d cancelled=%d", absorbed, fired, cancelled)
	}
}

// TestSignalCancelsTimeout checks that a wake before the deadline
// removes the timeout: nothing is left pending, no callback is traced
// at the deadline, and Run stops at the last real event instead of
// advancing the clock to the dead deadline.
func TestSignalCancelsTimeout(t *testing.T) {
	for _, engineSide := range []bool{false, true} {
		e := NewEngine()
		q := NewWaitQueue(e, "q")
		var trace []TraceEvent
		e.SetTracer(func(ev TraceEvent) { trace = append(trace, ev) })
		woken := false
		e.Go("waiter", func(p *Proc) {
			if engineSide {
				q.WaitUntil(p, 10*time.Millisecond, func() bool { return woken })
			} else {
				q.WaitTimeout(p, 10*time.Millisecond)
			}
		})
		e.Go("signaler", func(p *Proc) {
			p.Sleep(time.Millisecond)
			woken = true
			q.Signal()
		})
		e.Run()
		s := e.Stats()
		if s.TimeoutsArmed != 1 || s.TimeoutsCancelled != 1 || s.TimeoutsFired != 0 || s.TimeoutsPending != 0 {
			t.Fatalf("engineSide=%v: timeout counters %+v", engineSide, s)
		}
		for _, ev := range trace {
			if ev.Kind == TraceCallback {
				t.Fatalf("engineSide=%v: callback traced at %v", engineSide, ev.At)
			}
		}
		if e.Now() != time.Millisecond {
			t.Fatalf("engineSide=%v: Run ended at %v, want 1ms", engineSide, e.Now())
		}
	}
}

// TestWaitUntilTimeoutRearms checks the absorbed path of a timeout: a
// waiter whose condition stays false through two expiries is re-armed
// each time without resuming, and reports each expired wait.
func TestWaitUntilTimeoutRearms(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue(e, "q")
	var waits []waitRec
	e.SetWaitObserver(func(p *Proc, kind, resource, holder string, _ int, start, dur time.Duration) {
		waits = append(waits, waitRec{p.Name(), kind, resource, holder, start, dur})
	})
	var resumes []time.Duration
	e.SetTracer(func(ev TraceEvent) {
		if ev.Kind == TraceResume && ev.Proc == "waiter" {
			resumes = append(resumes, ev.At)
		}
	})
	open := false
	var done time.Duration
	e.Go("waiter", func(p *Proc) {
		q.WaitUntil(p, 10*time.Millisecond, func() bool { return open })
		done = p.Now()
	})
	e.After(25*time.Millisecond, func() { open = true })
	e.Run()
	if done != 30*time.Millisecond {
		t.Fatalf("WaitUntil returned at %v, want 30ms (third expiry)", done)
	}
	if len(resumes) != 2 || resumes[0] != 0 || resumes[1] != 30*time.Millisecond {
		t.Fatalf("waiter resumed at %v, want [0s 30ms]: expiries at 10ms and 20ms must be absorbed", resumes)
	}
	if len(waits) != 3 {
		t.Fatalf("want 3 reported waits, got %+v", waits)
	}
	for i, w := range waits {
		if w.start != time.Duration(i)*10*time.Millisecond || w.dur != 10*time.Millisecond {
			t.Fatalf("wait %d = %+v", i, w)
		}
	}
	if s := e.Stats(); s.WakesAbsorbed != 2 || s.TimeoutsFired != 3 || s.TimeoutsArmed != 3 {
		t.Fatalf("counters %+v", s)
	}
}

// TestWaitUntilDoubleWakePanics checks that the one-pending-wake
// invariant still holds for a WaitUntil waiter: a second wake on top of
// a Signal is rejected.
func TestWaitUntilDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue(e, "q")
	target := e.Go("waiter", func(p *Proc) {
		q.WaitUntil(p, time.Hour, func() bool { return false })
	})
	panicked := false
	e.Go("waker", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(time.Millisecond)
		q.Signal()
		e.ScheduleWake(target) // second pending wake: must be rejected
	})
	e.RunUntil(time.Second)
	if !panicked {
		t.Fatal("double wake was not rejected")
	}
}

// BenchmarkWaitUntilBroadcast measures the absorbed-wake path: 1,000
// WaitUntil waiters share a queue and each broadcast readies exactly
// one of them, so every op is one resume and 999 engine-side re-checks.
func BenchmarkWaitUntilBroadcast(b *testing.B) {
	const waiters = 1000
	e := NewEngine()
	q := NewWaitQueue(e, "b")
	turn := -1
	for i := 0; i < waiters; i++ {
		e.Go("waiter", func(p *Proc) {
			for target := i; target < b.N; target += waiters {
				q.WaitUntil(p, time.Second, func() bool { return turn >= target })
			}
		})
	}
	e.Go("broadcaster", func(p *Proc) {
		p.Sleep(time.Microsecond) // let every waiter park
		b.ResetTimer()
		for turn = 0; turn < b.N; turn++ {
			q.Broadcast()
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	e.Run()
	if e.LiveProcs() != 0 {
		b.Fatalf("%d procs still parked", e.LiveProcs())
	}
}
