package cpu

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// BenchmarkExecCoalescedUncontended measures a long Exec on an idle
// host: the quantum chain must coalesce the whole 10ms run into one
// park/resume round trip and stay allocation-free via the pools.
func BenchmarkExecCoalescedUncontended(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 4)
	th := c.NewThread(NewAccount("bench"), 0)
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			th.Exec(p, User, 10*time.Millisecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkExecSubQuantum measures the short-Exec fast path (the IPC
// and syscall cost charges, far below one quantum).
func BenchmarkExecSubQuantum(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 4)
	th := c.NewThread(NewAccount("bench"), 0)
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			th.Exec(p, User, time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkExecContended time-shares one core between four threads, so
// every quantum boundary goes through the FIFO waiter queue.
func BenchmarkExecContended(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 1)
	acct := NewAccount("bench")
	const threads = 4
	per := b.N/threads + 1
	for i := 0; i < threads; i++ {
		th := c.NewThread(acct, MaskOf(0))
		eng.Go("bench", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				th.Exec(p, User, 2*time.Millisecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkExecSeqContended time-shares one core between four threads
// that each run FUSE-crossing-shaped charge sequences (mode switch,
// request work, context switch), so most segment boundaries hand the
// core through the runqueue. The pooled chains and stages keep it
// allocation-free.
func BenchmarkExecSeqContended(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 1)
	acct := NewAccount("bench")
	const threads = 4
	per := b.N/threads + 1
	for i := 0; i < threads; i++ {
		th := c.NewThread(acct, MaskOf(0))
		eng.Go("bench", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				c.ExecSeq(p, th.ModeSwitchSeg(), th.Seg(Kernel, 20*time.Microsecond), th.ContextSwitchSeg())
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
