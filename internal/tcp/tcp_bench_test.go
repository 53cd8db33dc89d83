package tcp

import (
	"fmt"
	"testing"

	"quiclab/internal/netem"
	"quiclab/internal/sim"
	"quiclab/internal/wire"
)

// BenchmarkTCPAckProcessing measures the sender's per-ack cost with a
// steady window in flight: each op records one new segment at the tail
// and processes the cumulative ack for the oldest. The scoreboard makes
// this O(newly acked), so ns/op must not grow with the window.
// Guarded in BENCH_matrix.json: allocs/op must stay 0.
func BenchmarkTCPAckProcessing(b *testing.B) {
	for _, inflight := range []int{100, 2000} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			e := NewEndpoint(netem.NewNetwork(sim.New(1)), 1, Config{IdleTimeout: -1})
			c := newConn(e, 2, 1, true)
			c.tcpEstablished = true
			mss := uint64(wire.TCPMSS)
			send := func() {
				c.outBytes -= c.sb.add(c.sndNxt, c.sndNxt+mss, c.nextSendIdx, false, 0)
				c.outBytes += int(mss)
				c.nextSendIdx++
				c.sndNxt += mss
			}
			for i := 0; i < inflight; i++ {
				send()
			}
			ack := &wire.TCPSegment{ACK: true, Window: 1 << 30}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
				ack.AckNum = c.sndUna + mss
				c.onAckInfo(ack)
			}
		})
	}
}
