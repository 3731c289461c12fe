package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// refCPU is the loop form of the scheduler that the chained exec stage
// replaces, kept here as the reference: every segment runs as its own
// acquire → Sleep(slice) → release loop, one quantum at a time. A
// process that finds no idle core parks in a FIFO, and release hands
// the core to the oldest compatible waiter by waking its process. It
// reuses the CPU's core state, tryAcquire and book, so the two forms
// differ only in how a process waits.
type refCPU struct {
	*CPU
	waiters []*refWaiter
}

type refWaiter struct {
	p    *sim.Proc
	t    *Thread
	core int
}

func (r *refCPU) acquire(p *sim.Proc, t *Thread) int {
	if core, ok := r.tryAcquire(t); ok {
		return core
	}
	since, aggr := r.eng.Now(), ""
	if r.eng.HasWaitObserver() {
		aggr = r.runqAggressor(t)
	}
	w := &refWaiter{p: p, t: t, core: -1}
	r.waiters = append(r.waiters, w)
	p.Park()
	p.ReportWait("runq", "cpu", aggr, 0, r.eng.Now()-since)
	return w.core
}

func (r *refCPU) release(core int) {
	for i, w := range r.waiters {
		if w.t.mask.Has(core) {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			w.core = core
			r.cores[core].occupant = w.t.acct
			r.eng.ScheduleWake(w.p)
			return
		}
	}
	r.cores[core].busy = false
	r.cores[core].occupant = nil
}

func (r *refCPU) exec(p *sim.Proc, s Seg) {
	switch s.sw {
	case modeSwitch:
		s.t.acct.modeSwitches++
	case contextSwitch:
		s.t.acct.contextSwitches++
	}
	for d := s.d; d > 0; {
		core := r.acquire(p, s.t)
		slice := min(d, r.params.Quantum)
		p.Sleep(slice)
		r.book(p, s.t, s.kind, core, slice)
		d -= slice
		r.release(core)
	}
}

// seqStep is one planned step of a process: a pause, then a sequence of charges.
// Each segment names one of the process's threads.
type seqStep struct {
	pause time.Duration
	segs  []plannedSeg
}

type plannedSeg struct {
	thread int
	kind   TimeKind
	d      time.Duration
	sw     switchKind
}

// seqPlan draws the work of every process of a scenario: its thread
// masks (random, overlapping, some a single core) and its charges.
// Durations mix zero, sub-quantum, exactly one quantum and several
// quanta, so every path of the exec stage is taken.
func seqPlan(seed int64, cores, procs int) (masks [][]Mask, steps [][]seqStep) {
	rng := rand.New(rand.NewSource(seed))
	q := model.Default().Quantum
	for i := 0; i < procs; i++ {
		var ms []Mask
		for j := 0; j < 1+rng.Intn(3); j++ {
			m := Mask(rng.Intn(1<<cores-1) + 1)
			if rng.Intn(3) == 0 {
				m = MaskOf(rng.Intn(cores))
			}
			ms = append(ms, m)
		}
		masks = append(masks, ms)
		var st []seqStep
		for j := 0; j < 12; j++ {
			s := seqStep{pause: time.Duration(rng.Intn(3000)) * time.Microsecond}
			for k := 0; k < 1+rng.Intn(6); k++ {
				var d time.Duration
				switch rng.Intn(5) {
				case 0:
				case 1:
					d = q
				case 2:
					d = q + time.Duration(rng.Int63n(int64(3*q)))
				default:
					d = time.Duration(1+rng.Intn(400)) * time.Microsecond
				}
				s.segs = append(s.segs, plannedSeg{
					thread: rng.Intn(len(ms)), kind: TimeKind(rng.Intn(2)),
					d: d, sw: switchKind(rng.Intn(3)),
				})
			}
			st = append(st, s)
		}
		steps = append(steps, st)
	}
	return masks, steps
}

// seqRun is what one run of a scenario produced.
type seqRun struct {
	waits  []string
	runq   int // runqueue waits among them
	busy   []time.Duration
	accts  []Snapshot
	end    time.Duration
	events uint64
	stats  sim.Stats
}

// runSeqScenario runs a seed's plan through chains (ExecSeq, and Exec
// for single plain segments) or, with ref, through refCPU's loop form.
func runSeqScenario(seed int64, ref bool) seqRun {
	const cores, procs = 4, 7
	masks, steps := seqPlan(seed, cores, procs)
	e := sim.NewEngine()
	c := New(e, model.Default(), cores)
	r := &refCPU{CPU: c}
	var run seqRun
	e.SetWaitObserver(func(p *sim.Proc, kind, _, holder string, _ int, start, dur time.Duration) {
		run.waits = append(run.waits, fmt.Sprintf("%d %s %q %v+%v", p.ID(), kind, holder, start, dur))
		if kind == "runq" {
			run.runq++
		}
	})
	accts := []*Account{NewAccount("a0"), NewAccount("a1"), NewAccount("a2")}
	for i := 0; i < procs; i++ {
		var ths []*Thread
		for j, m := range masks[i] {
			ths = append(ths, c.NewThread(accts[(i+j)%len(accts)], m))
		}
		st := steps[i]
		e.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			var segs []Seg
			for _, s := range st {
				p.Sleep(s.pause)
				segs = segs[:0]
				for _, ps := range s.segs {
					segs = append(segs, Seg{t: ths[ps.thread], kind: ps.kind, d: ps.d, sw: ps.sw})
				}
				switch {
				case ref:
					for _, sg := range segs {
						r.exec(p, sg)
					}
				case len(segs) == 1 && segs[0].sw == noSwitch:
					segs[0].t.Exec(p, segs[0].kind, segs[0].d)
				default:
					c.ExecSeq(p, segs...)
				}
			}
		})
	}
	e.Run()
	run.busy = c.UtilSnapshot()
	for _, a := range accts {
		run.accts = append(run.accts, a.Snapshot())
	}
	run.end = e.Now()
	run.stats = e.Stats()
	run.events = run.stats.Callbacks + run.stats.Resumes
	return run
}

// TestExecSeqMatchesLoopForm is the equivalence contract of the cpu
// stage: on random charge sequences over contended, overlapping masks,
// ExecSeq and Exec produce the same wait reports in the same order, the
// same per-core busy time, the same account times and switch counts,
// the same final clock and the same number of engine events as running
// every segment through the loop form. Only the kind of event changes: a resume of
// the loop form becomes a callback.
func TestExecSeqMatchesLoopForm(t *testing.T) {
	var runq, saved int
	for seed := int64(1); seed <= 40; seed++ {
		loop, seq := runSeqScenario(seed, true), runSeqScenario(seed, false)
		if !reflect.DeepEqual(loop.waits, seq.waits) {
			i := 0
			for i < len(loop.waits) && i < len(seq.waits) && loop.waits[i] == seq.waits[i] {
				i++
			}
			t.Fatalf("seed %d: wait reports differ from #%d of %d/%d:\n loop  %v\n chain %v",
				seed, i, len(loop.waits), len(seq.waits), loop.waits[i:min(i+3, len(loop.waits))], seq.waits[i:min(i+3, len(seq.waits))])
		}
		if !reflect.DeepEqual(loop.busy, seq.busy) {
			t.Fatalf("seed %d: core busy time %v vs %v", seed, loop.busy, seq.busy)
		}
		if !reflect.DeepEqual(loop.accts, seq.accts) {
			t.Fatalf("seed %d: accounts differ:\n loop  %+v\n chain %+v", seed, loop.accts, seq.accts)
		}
		if loop.end != seq.end {
			t.Fatalf("seed %d: final clock %v vs %v", seed, loop.end, seq.end)
		}
		if loop.events != seq.events {
			t.Fatalf("seed %d: engine events %d vs %d:\n loop  %+v\n chain %+v", seed, loop.events, seq.events, loop.stats, seq.stats)
		}
		runq += seq.runq
		saved += int(loop.stats.Resumes - seq.stats.Resumes)
	}
	if runq == 0 || saved == 0 {
		t.Fatalf("scenario too tame: %d runqueue waits, %d resumes saved", runq, saved)
	}
}

// TestExecSeqZeroLengthSegments checks the degenerate sequences: an empty
// ExecSeq does nothing, zero-length segments only bump their counters,
// before the work or after it.
func TestExecSeqZeroLengthSegments(t *testing.T) {
	e, c := newTestCPU(t, 1)
	acct := NewAccount("a")
	th := c.NewThread(acct, 0)
	e.Go("w", func(p *sim.Proc) {
		c.ExecSeq(p)
		c.ExecSeq(p, th.Seg(User, 0), Seg{t: th, sw: contextSwitch}, th.BytesSeg(Kernel, 0, 1<<30))
		c.ExecSeq(p, th.Seg(User, 5*time.Microsecond), Seg{t: th, sw: modeSwitch})
	})
	e.Run()
	if acct.CPUTime() != 5*time.Microsecond || e.Now() != 5*time.Microsecond {
		t.Fatalf("cpu %v at %v, want 5µs at 5µs", acct.CPUTime(), e.Now())
	}
	if acct.ContextSwitches() != 1 || acct.ModeSwitches() != 1 {
		t.Fatalf("switches: %d context, %d mode, want 1 and 1", acct.ContextSwitches(), acct.ModeSwitches())
	}
	if s := e.Stats(); s.Resumes != 2 || s.Callbacks != 0 {
		t.Fatalf("engine work %+v, want the start and one wake", s)
	}
}
