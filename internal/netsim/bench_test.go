package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkChainLinkTransfer measures one 256 KiB transfer on a link
// shared by eight senders: its four MTU chunks queue on the transmit
// lock, and the chunks, the handoffs and the propagation delay run as
// one chain per transfer. The pooled chains and transfer states keep
// it allocation-free.
func BenchmarkChainLinkTransfer(b *testing.B) {
	eng := sim.NewEngine()
	l := NewLink(eng, "bench", 1<<30, 20*time.Microsecond, 64<<10)
	const senders = 8
	per := b.N/senders + 1
	for i := 0; i < senders; i++ {
		eng.Go("bench", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				if err := l.Transfer(p, 256<<10); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
