package main

import (
	"time"

	"quiclab/internal/core"
	"quiclab/internal/device"
	"quiclab/internal/web"
)

// workload is one closed-loop Matrix sweep: every scenario runs as
// paired QUIC-vs-TCP rounds through Matrix.Compare, the pooled path real
// sweeps use. The scenario shapes are fixed; the seed reaches the
// program only through Options.Seed and Scenario.Seed.
type workload struct {
	name   string
	why    string
	rounds int // paired rounds per scenario in one sweep
	shapes []core.Scenario
}

// experiment is the workload's NewMatrix name, which fixes its
// cell-seed domain independently of the other workloads.
func (w workload) experiment() string { return "perfbench-" + w.name }

// cells is the number of matrix cells (scenario x round x protocol) in
// one sweep.
func (w workload) cells() int { return len(w.shapes) * w.rounds * 2 }

// scenarios returns the sweep's inputs for seed: the fixed shapes on the
// desktop device at the default RTT, stamped with the seed that drives
// their per-round path perturbation.
func (w workload) scenarios(seed int64) []core.Scenario {
	out := make([]core.Scenario, len(w.shapes))
	for i, sc := range w.shapes {
		sc.Seed = seed
		sc.Device = device.Desktop
		out[i] = sc
	}
	return out
}

// Round counts size one sweep at one to two seconds of wall time on one
// worker, so a 30-second run measures fifteen to twenty sweeps and
// reports their median.
var workloads = []workload{
	{
		name:   "bulk",
		why:    "10 MiB at 100 Mbps with MACW 430 and 2000: per-packet transport bookkeeping with thousands in flight; set-up amortised",
		rounds: 8,
		shapes: []core.Scenario{
			{RateMbps: 100, Page: web.Page{NumObjects: 1, ObjectSize: 10 << 20}, MACW: 430},
			{RateMbps: 100, Page: web.Page{NumObjects: 1, ObjectSize: 10 << 20}, MACW: 2000},
		},
	},
	{
		name:   "pages",
		why:    "short page loads at 10 and 50 Mbps: per-cell fixed costs (testbed reuse, handshakes, engine) and the QUIC stream scheduler",
		rounds: 100,
		shapes: pageShapes(),
	},
	{
		name:   "lossy",
		why:    "2 MiB at 20 Mbps with 1-2% loss and 0 or 5 ms jitter: the transports' loss-recovery path, timers and netem reordering",
		rounds: 40,
		shapes: lossyShapes(),
	},
}

func pageShapes() []core.Scenario {
	pages := []web.Page{
		{NumObjects: 1, ObjectSize: 5 << 10},
		{NumObjects: 1, ObjectSize: 100 << 10},
		{NumObjects: 10, ObjectSize: 10 << 10},
		{NumObjects: 100, ObjectSize: 5 << 10},
	}
	var out []core.Scenario
	for _, rate := range []float64{10, 50} {
		for _, p := range pages {
			out = append(out, core.Scenario{RateMbps: rate, Page: p})
		}
	}
	return out
}

func lossyShapes() []core.Scenario {
	var out []core.Scenario
	for _, loss := range []float64{1, 2} {
		for _, jitter := range []time.Duration{0, 5 * time.Millisecond} {
			out = append(out, core.Scenario{
				RateMbps: 20, LossPct: loss, Jitter: jitter,
				Page: web.Page{NumObjects: 1, ObjectSize: 2 << 20},
			})
		}
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
