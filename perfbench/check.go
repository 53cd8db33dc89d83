package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"quiclab/internal/core"
)

// pltDigest hashes every scenario's QUIC and TCP mean PLT, in scenario
// order, to the nanosecond. Two commits (or a traced and an untraced
// sweep) that simulate identically print the same digest.
func pltDigest(cms []core.Comparison) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, cm := range cms {
		binary.LittleEndian.PutUint64(b[:], uint64(cm.QUICMean))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(cm.TCPMean))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pltFloor is the physical lower bound on a scenario's page-load time:
// the page's payload serialised at the bottleneck rate plus one round
// trip. Matrix.Compare perturbs each round's RTT by up to -4%, so the
// round trip counted is the smallest a round can draw.
func pltFloor(sc core.Scenario) time.Duration {
	rtt := sc.RTT
	if rtt == 0 {
		rtt = core.DefaultRTT
	}
	serialise := time.Duration(float64(sc.Page.TotalBytes()*8) / (sc.RateMbps * 1e6) * float64(time.Second))
	return serialise + time.Duration(0.96*float64(rtt+sc.ExtraDelay))
}

// checkFloors returns one message per mean PLT below its scenario's
// physical floor.
func checkFloors(scs []core.Scenario, cms []core.Comparison) []string {
	var bad []string
	for i, sc := range scs {
		floor := pltFloor(sc)
		if cms[i].QUICMean < floor {
			bad = append(bad, fmt.Sprintf("scenario %d: QUIC mean %v below floor %v", i, cms[i].QUICMean, floor))
		}
		if cms[i].TCPMean < floor {
			bad = append(bad, fmt.Sprintf("scenario %d: TCP mean %v below floor %v", i, cms[i].TCPMean, floor))
		}
	}
	return bad
}

// tailPercentiles are the candidates for a reported tail, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it (nearest-rank), so the reported
// tail rests on more than a few outliers; ok is false when n < 20 and
// even the median lacks ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-nearestRank(c, n) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(p, len(xs))-1]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
