package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// planOp is one planned step of a chain. The same plan runs through a
// Chain and through the loop form, which performs every step with the
// process-side primitives (Sleep, Mutex.Lock, Resource.Acquire, ...).
type planOp struct {
	kind  planKind
	d     time.Duration
	k     int   // mutex or resource index
	n     int64 // resource units
	obs   bool  // Lock: report the wait to a LockWaiter
	extra []planOp
}

type planKind uint8

const (
	planSleep   planKind = iota
	planLock             // Lock mutex k
	planUnlock           // Unlock mutex k
	planAcquire          // Acquire n units of resource k
	planRelease          // Release n units of resource k, from a Func
	planLog              // record an action, from a Func
	planReport           // report a wait of d, from a Func
	planSliced           // a Stage sleeping d in slices of sliceLen
	planAppend           // a Func appending extra
	planEnd              // a Func ending the chain
)

const (
	chainMutexes   = 3
	chainResources = 2
	sliceLen       = 40 * time.Microsecond
)

// genOps draws a block of planned ops. Primitives nest in a fixed order
// (resources 0..1, then mutexes 0..2, each only inside lower ones), so
// no plan can deadlock. Durations mix zero, short and sliced, so wakes
// tie at one timestamp often and seq order decides.
func genOps(rng *rand.Rand, minPrim, depth int, top bool) []planOp {
	var ops []planOp
	for j := 0; j < 1+rng.Intn(4); j++ {
		switch rng.Intn(10) {
		case 0, 1:
			var d time.Duration
			if rng.Intn(3) > 0 {
				d = time.Duration(1+rng.Intn(60)) * time.Microsecond
			}
			ops = append(ops, planOp{kind: planSleep, d: d})
		case 2:
			ops = append(ops, planOp{kind: planLog})
		case 3:
			ops = append(ops, planOp{kind: planReport, d: time.Duration(rng.Intn(30)) * time.Microsecond})
		case 4, 5, 6:
			if depth > 2 || minPrim >= chainResources+chainMutexes {
				continue
			}
			prim := minPrim + rng.Intn(chainResources+chainMutexes-minPrim)
			inner := genOps(rng, prim+1, depth+1, false)
			if prim < chainResources {
				n := int64(1 + rng.Intn(2))
				ops = append(ops, planOp{kind: planAcquire, k: prim, n: n})
				ops = append(ops, inner...)
				ops = append(ops, planOp{kind: planRelease, k: prim, n: n})
			} else {
				k := prim - chainResources
				ops = append(ops, planOp{kind: planLock, k: k, obs: rng.Intn(2) == 0})
				ops = append(ops, inner...)
				ops = append(ops, planOp{kind: planUnlock, k: k})
			}
		case 7:
			d := time.Duration(rng.Intn(4)) * sliceLen
			if rng.Intn(2) == 0 {
				d += time.Duration(rng.Intn(int(sliceLen)))
			}
			ops = append(ops, planOp{kind: planSliced, d: d})
		case 8:
			if depth < 2 {
				ops = append(ops, planOp{kind: planAppend, extra: genOps(rng, 0, depth+1, true)})
			}
		case 9:
			// Ending early is only safe where nothing is held.
			if top && rng.Intn(3) == 0 {
				ops = append(ops, planOp{kind: planEnd})
			}
		}
	}
	return ops
}

// chainWorld is one run of a scenario: its primitives and what the run
// observed.
type chainWorld struct {
	e     *Engine
	mu    []*Mutex
	res   []*Resource
	log   []string // actions, lock waits and wait reports, in order
	trace []time.Duration
}

func (w *chainWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.e.Now())+fmt.Sprintf(format, args...))
}

// lockLog is the LockWaiter of one process.
type lockLog struct {
	w  *chainWorld
	id int
}

func (l lockLog) LockWait(lock string, wait time.Duration) {
	l.w.logf("p%d lockwait %s %v", l.id, lock, wait)
}

// sliced is a test Stage: it sleeps d in slices of sliceLen, logging
// each slice boundary, the way cpu's stage slices work by the quantum.
type sliced struct {
	w    *chainWorld
	id   int
	d    time.Duration
	left time.Duration
	run  bool
}

func (s *sliced) Advance(ch *Chain) bool {
	if s.run {
		s.w.logf("p%d slice", s.id)
	} else {
		s.left, s.run = s.d, true
	}
	if s.left == 0 {
		return true
	}
	slice := min(s.left, sliceLen)
	s.left -= slice
	ch.WakeAfter(slice)
	return false
}

// loopOps runs ops in the loop form. A planAppend extends the list it
// walks, as a Func extends its chain.
func (w *chainWorld) loopOps(p *Proc, id int, ops []planOp) {
	ops = append([]planOp(nil), ops...)
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		switch op.kind {
		case planSleep:
			p.Sleep(op.d)
		case planLock:
			start := w.e.Now()
			w.mu[op.k].Lock(p)
			if op.obs {
				lockLog{w, id}.LockWait("m", w.e.Now()-start)
			}
		case planUnlock:
			w.mu[op.k].Unlock(p)
		case planAcquire:
			w.res[op.k].Acquire(p, op.n)
		case planRelease:
			w.res[op.k].Release(op.n)
		case planLog:
			w.logf("p%d act", id)
		case planReport:
			p.ReportWait("test", "r", "", 0, op.d)
		case planSliced:
			for d := op.d; d > 0; {
				slice := min(d, sliceLen)
				p.Sleep(slice)
				d -= slice
				w.logf("p%d slice", id)
			}
		case planAppend:
			ops = append(ops, op.extra...)
		case planEnd:
			return
		}
	}
}

// chainOps appends ops to ch as segments.
func (w *chainWorld) chainOps(ch *Chain, id int, ops []planOp) {
	for _, op := range ops {
		switch op.kind {
		case planSleep:
			ch.Sleep(op.d)
		case planLock:
			if op.obs {
				ch.LockObserved(w.mu[op.k], "m", lockLog{w, id})
			} else {
				ch.Lock(w.mu[op.k])
			}
		case planUnlock:
			ch.Unlock(w.mu[op.k])
		case planAcquire:
			ch.Acquire(w.res[op.k], op.n)
		case planRelease:
			r, n := w.res[op.k], op.n
			ch.Func(func(*Chain) bool { r.Release(n); return true })
		case planLog:
			ch.Func(func(*Chain) bool { w.logf("p%d act", id); return true })
		case planReport:
			d := op.d
			ch.Func(func(ch *Chain) bool { ch.Proc().ReportWait("test", "r", "", 0, d); return true })
		case planSliced:
			ch.Stage(&sliced{w: w, id: id, d: op.d})
		case planAppend:
			extra := op.extra
			ch.Func(func(ch *Chain) bool {
				w.chainOps(ch, id, extra)
				return true
			})
		case planEnd:
			ch.Func(func(*Chain) bool { return false })
		}
	}
}

// chainRun is what one run of a scenario produced.
type chainRun struct {
	log   []string
	trace []time.Duration
	locks []LockStats
	busy  []time.Duration
	end   time.Duration
	stats Stats
}

// runChainScenario runs a seed's plan: every process alternates process
// side sleeps with planned chains, run as Chains or, with loop, in the
// loop form.
func runChainScenario(seed int64, loop bool) chainRun {
	const procs = 6
	rng := rand.New(rand.NewSource(seed))
	w := &chainWorld{e: NewEngine()}
	for k := 0; k < chainMutexes; k++ {
		w.mu = append(w.mu, NewMutex(w.e, fmt.Sprintf("m%d", k)))
	}
	w.res = append(w.res, NewResource(w.e, "r0", 2), NewResource(w.e, "r1", 3))
	w.e.SetTracer(func(ev TraceEvent) {
		if ev.Kind != TraceFinish {
			w.trace = append(w.trace, ev.At)
		}
	})
	w.e.SetWaitObserver(func(p *Proc, kind, res, holder string, holderID int, start, dur time.Duration) {
		w.logf("p%d wait %s %s %q#%d %v+%v", p.ID(), kind, res, holder, holderID, start, dur)
	})
	for i := 0; i < procs; i++ {
		type step struct {
			pause time.Duration
			ops   []planOp
		}
		var steps []step
		for j := 0; j < 10; j++ {
			steps = append(steps, step{time.Duration(rng.Intn(3)*rng.Intn(80)) * time.Microsecond, genOps(rng, 0, 0, true)})
		}
		w.e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, s := range steps {
				p.Sleep(s.pause)
				if loop {
					w.loopOps(p, p.ID(), s.ops)
					continue
				}
				ch := p.Chain()
				w.chainOps(ch, p.ID(), s.ops)
				ch.Run()
			}
			w.logf("p%d done", p.ID())
		})
	}
	w.e.Run()
	run := chainRun{log: w.log, trace: w.trace, end: w.e.Now(), stats: w.e.Stats()}
	for _, m := range w.mu {
		run.locks = append(run.locks, m.Stats())
	}
	for _, r := range w.res {
		run.busy = append(run.busy, r.BusyTime())
	}
	return run
}

// TestChainMatchesLoopForm is the equivalence contract of chains: on
// random chains of sleeps, contended locks and resources, funcs that
// end the chain, extend it or report waits, and a slicing Stage, a Chain
// produces the same actions, lock waits and wait reports in the same
// order at the same times, the same engine events at the same times,
// the same lock and resource statistics and the same final clock as
// the loop form. Only the kind of event changes: a resume of the loop
// form becomes a callback.
func TestChainMatchesLoopForm(t *testing.T) {
	var saved, contended uint64
	for seed := int64(1); seed <= 60; seed++ {
		loop, chain := runChainScenario(seed, true), runChainScenario(seed, false)
		if !reflect.DeepEqual(loop.log, chain.log) {
			i := 0
			for i < len(loop.log) && i < len(chain.log) && loop.log[i] == chain.log[i] {
				i++
			}
			t.Fatalf("seed %d: logs differ from #%d of %d/%d:\n loop  %q\n chain %q", seed, i, len(loop.log), len(chain.log),
				loop.log[i:min(i+4, len(loop.log))], chain.log[i:min(i+4, len(chain.log))])
		}
		if !reflect.DeepEqual(loop.trace, chain.trace) {
			t.Fatalf("seed %d: engine event times differ (%d vs %d events)", seed, len(loop.trace), len(chain.trace))
		}
		if ls, cs := loop.stats, chain.stats; ls.Callbacks+ls.Resumes != cs.Callbacks+cs.Resumes {
			t.Fatalf("seed %d: engine events %d vs %d:\n loop  %+v\n chain %+v", seed, ls.Callbacks+ls.Resumes, cs.Callbacks+cs.Resumes, ls, cs)
		}
		if !reflect.DeepEqual(loop.locks, chain.locks) || !reflect.DeepEqual(loop.busy, chain.busy) {
			t.Fatalf("seed %d: lock stats %+v vs %+v, resource busy %v vs %v", seed, loop.locks, chain.locks, loop.busy, chain.busy)
		}
		if loop.end != chain.end {
			t.Fatalf("seed %d: final clock %v vs %v", seed, loop.end, chain.end)
		}
		if chain.stats.ProcsLive != 0 {
			t.Fatalf("seed %d: %d procs never finished", seed, chain.stats.ProcsLive)
		}
		saved += loop.stats.Resumes - chain.stats.Resumes
		for _, l := range chain.locks {
			contended += l.Contended
		}
	}
	if saved == 0 || contended == 0 {
		t.Fatalf("scenario too tame: %d resumes saved, %d contended locks", saved, contended)
	}
}

// TestChainParksOnce: a chain of blocking segments parks its process
// once, and a chain that never blocks does not park it at all.
func TestChainParksOnce(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	var done []time.Duration
	e.Go("p", func(p *Proc) {
		ch := p.Chain()
		ch.Sleep(time.Microsecond).Lock(m).Sleep(2 * time.Microsecond).Unlock(m).Sleep(3 * time.Microsecond).Run()
		done = append(done, p.Now())
		ran := false
		ch = p.Chain()
		ch.Lock(m).Func(func(*Chain) bool { ran = true; return true }).Unlock(m).Run()
		if !ran {
			t.Error("non-blocking chain skipped its func")
		}
		done = append(done, p.Now())
	})
	e.Run()
	if want := []time.Duration{6 * time.Microsecond, 6 * time.Microsecond}; !reflect.DeepEqual(done, want) {
		t.Fatalf("chains ended at %v, want %v", done, want)
	}
	// The start and the last sleep's wake resume p; the two sleeps
	// before it are callbacks.
	if s := e.Stats(); s.Resumes != 2 || s.Callbacks != 2 {
		t.Fatalf("engine work %+v, want 2 resumes and 2 callbacks", s)
	}
}

// TestChainFuncEndsEarly: a Func returning false skips the rest of the
// chain, and one appending segments runs them after the others.
func TestChainFuncEndsEarly(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Go("p", func(p *Proc) {
		ch := p.Chain()
		record := func(what string) func(*Chain) bool {
			return func(*Chain) bool { got = append(got, what); return true }
		}
		ch.Func(func(ch *Chain) bool {
			ch.Func(record("appended"))
			return true
		}).Sleep(time.Microsecond).Func(record("slept")).Run()
		p.Chain().Sleep(time.Microsecond).Func(func(*Chain) bool { return false }).Func(record("skipped")).Run()
	})
	e.Run()
	if want := []string{"slept", "appended"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if e.LiveProcs() != 0 || e.Now() != 2*time.Microsecond {
		t.Fatalf("%d live procs at %v", e.LiveProcs(), e.Now())
	}
}

// BenchmarkChainMutexHandoff is BenchmarkMutexContendedHandoff with
// each lock, hold and unlock run as one chain: every handoff to a
// queued worker and every hold's end is an engine callback. The pooled
// chains keep it allocation-free.
func BenchmarkChainMutexHandoff(b *testing.B) {
	e := NewEngine()
	m := NewMutex(e, "b")
	const workers = 64
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		e.Go("bench", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Chain().Lock(m).Sleep(time.Microsecond).Unlock(m).Run()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
