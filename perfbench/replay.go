package main

import (
	"fmt"
	"strings"

	"quiclab/internal/core"
	"quiclab/internal/profile"
)

// waitStates name the stall-attribution shares the replay reports.
var waitStates = []string{"cwnd_limited", "pacing_gated", "recovery", "rto_wait", "flowctl", "handshake"}

func waitNS(b profile.Budget, state string) int64 {
	switch state {
	case "cwnd_limited":
		return b.CwndLimitedNS
	case "pacing_gated":
		return b.PacingGatedNS
	case "recovery":
		return b.RecoveryNS
	case "rto_wait":
		return b.RTOWaitNS
	case "flowctl":
		return b.FlowCtlConnNS + b.FlowCtlStreamNS
	case "handshake":
		return b.HandshakeNS
	}
	panic("unknown wait state " + state)
}

// protoCounts sums one protocol's server-side trace summaries.
type protoCounts struct {
	cells                            int
	sent, lost, spurious, tlps, rtos int
	wireBytes, goodput               int64
}

// replayed is the instrumented RunPLT sample of a workload.
type replayed struct {
	cells, failed int
	protos        map[core.Proto]*protoCounts
	drops         float64
	queueMax      float64 // bytes
	waits         map[string]int64
	lifetime      int64
	bad           []string
}

// replay runs round 0 of every scenario once per protocol through the
// public Scenario.RunPLT with event tracing, metrics and stall profiling
// on, at the seed the sweep gives that cell, and reads the counters the
// transports, links and profiler expose.
func (b *bench) replay() replayed {
	sp := b.spans.begin("replay", -1)
	defer b.spans.end(sp)
	r := replayed{
		protos: map[core.Proto]*protoCounts{core.QUIC: {}, core.TCP: {}},
		waits:  map[string]int64{},
	}
	for i, sc := range b.scs {
		sc.TraceEvents, sc.Metrics, sc.Profile = true, true, true
		seed := core.CellSeed(b.seed, b.w.experiment(), i, 0)
		for _, proto := range []core.Proto{core.QUIC, core.TCP} {
			s := b.spans.begin("Scenario.RunPLT", sp)
			res := sc.RunPLT(proto, seed)
			b.spans.end(s)
			r.cells++
			if !res.Completed {
				r.failed++
				continue
			}
			s = b.spans.begin("Result.ServerSummary", sp)
			sum := res.ServerSummary()
			b.spans.end(s)
			pc := r.protos[proto]
			pc.cells++
			pc.sent += sum.PacketsSent
			pc.lost += sum.PacketsLost
			pc.spurious += sum.SpuriousLosses
			pc.tlps += sum.TLPs
			pc.rtos += sum.RTOs
			pc.wireBytes += sum.BytesSent
			pc.goodput += int64(sc.Page.TotalBytes())

			s = b.spans.begin("Metrics.Export", sp)
			series := res.Metrics.Export()
			b.spans.end(s)
			for _, sd := range series {
				if len(sd.Points) == 0 {
					continue
				}
				switch {
				case strings.HasSuffix(sd.Name, ".drops_total"):
					r.drops += sd.Points[len(sd.Points)-1].V
				case strings.HasSuffix(sd.Name, ".queue_bytes"):
					for _, p := range sd.Points {
						r.queueMax = max(r.queueMax, p.V)
					}
				}
			}
			for _, bg := range res.Budgets {
				if bg.Sum() != bg.LifetimeNS {
					r.bad = append(r.bad, fmt.Sprintf("scenario %d %v: budget components sum to %d ns, lifetime %d ns", i, proto, bg.Sum(), bg.LifetimeNS))
				}
				for _, st := range waitStates {
					r.waits[st] += waitNS(bg, st)
				}
				r.lifetime += bg.LifetimeNS
			}
		}
	}
	return r
}

// fill adds the replay's per-layer metrics to vals.
func (r replayed) fill(vals map[string]float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for proto, name := range map[core.Proto]string{core.QUIC: "quic", core.TCP: "tcp"} {
		pc := r.protos[proto]
		n := float64(pc.cells)
		vals[name+".pkts_sent_per_cell"] = ratio(float64(pc.sent), n)
		vals[name+".lost_share"] = ratio(float64(pc.lost), float64(pc.sent))
		vals[name+".spurious_share"] = ratio(float64(pc.spurious), float64(pc.lost))
		vals[name+".tlps_per_cell"] = ratio(float64(pc.tlps), n)
		vals[name+".rtos_per_cell"] = ratio(float64(pc.rtos), n)
		vals[name+".wire_bytes_per_goodput_byte"] = ratio(float64(pc.wireBytes), float64(pc.goodput))
	}
	done := float64(r.cells - r.failed)
	vals["netem.drops_per_cell"] = ratio(r.drops, done)
	vals["netem.queue_kb_max"] = r.queueMax / 1024
	for _, st := range waitStates {
		vals["wait."+st+"_share"] = ratio(float64(r.waits[st]), float64(r.lifetime))
	}
}
