package core

import (
	"sync"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/netem"
	"quiclab/internal/obs"
	"quiclab/internal/trace"
)

// Testbed reuse: constructing a testbed for one matrix cell allocates a
// simulator, a network, links, endpoints, recorders and a collector —
// several hundred objects. Across a large sweep almost all cells share a
// handful of structural shapes, so the matrix engine gives each worker a
// tbPool: after a cell finishes, its testbed is scrubbed with the Reset
// lifecycles (sim.Reset, Link.Reset, Network.Reset, Endpoint.Reset,
// Recorder.Reset, Collector.Reset) and parked for the next cell of the
// same shape. A reset testbed is byte-identical in behaviour to a fresh
// one: every Reset restores the exact state its constructor produces,
// only the allocations differ (TestResetTestbedByteIdentical holds this).

// tbShape is the structural identity of a testbed — everything that
// decides which objects exist (link count, endpoint protocol, recorder
// detail, which metric series get registered), as opposed to how they
// are configured. Configuration is re-applied on every acquire.
type tbShape struct {
	proto    Proto
	cellular bool
	proxied  bool
	detailed bool // qlog recorders (TraceEvents)
	metrics  bool
	// cadence and ccKey pin the collector's construction cadence and the
	// set of series the congestion controller registers (BBR variants
	// skip ssthresh), so a reused collector exports exactly the series a
	// fresh run would, in the same order.
	cadence time.Duration
	ccKey   string
}

// shape computes the scenario's structural identity for one protocol.
func (sc Scenario) shape(proto Proto) tbShape {
	return tbShape{
		proto:    proto,
		cellular: sc.Cell != nil,
		proxied:  sc.Cell == nil && sc.Proxy != NoProxy,
		detailed: sc.TraceEvents,
		metrics:  sc.Metrics,
		cadence:  sc.MetricsCadence,
		ccKey:    sc.CCAlgo,
	}
}

// tbPoolCap bounds the parked testbeds per shape; a worker runs one cell
// at a time, so anything beyond a small surplus (abandoned timed-out
// attempts releasing late) is dropped to the GC.
const tbPoolCap = 4

// tbPool is a per-worker cache of warm testbeds keyed by shape. The
// mutex exists only for the cell-timeout path, where an abandoned
// attempt's goroutine may release its testbed while the worker's retry
// is already acquiring — the pool is otherwise single-worker.
type tbPool struct {
	mu   sync.Mutex
	free map[tbShape][]*testbed
	tel  *obs.Telemetry
}

func newTBPool(tel *obs.Telemetry) *tbPool {
	return &tbPool{free: make(map[tbShape][]*testbed), tel: tel}
}

func (tp *tbPool) get(shape tbShape) *testbed {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	list := tp.free[shape]
	if n := len(list); n > 0 {
		tb := list[n-1]
		list[n-1] = nil
		tp.free[shape] = list[:n-1]
		return tb
	}
	return nil
}

func (tp *tbPool) put(tb *testbed) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	list := tp.free[tb.shape]
	if len(list) >= tbPoolCap {
		return // surplus; leave to the GC
	}
	tp.free[tb.shape] = append(list, tb)
}

// acquire returns a testbed for the scenario: a rewired warm one from
// the pool when available, else a freshly built one. tp may be nil (the
// public RunPLT path), in which case every call builds fresh.
func (sc Scenario) acquire(proto Proto, seed int64, tp *tbPool) *testbed {
	shape := sc.shape(proto)
	if tp != nil {
		if tb := tp.get(shape); tb != nil {
			sc.rewire(tb, seed)
			tp.tel.TestbedReused()
			return tb
		}
		tp.tel.TestbedBuilt()
	}
	tb := sc.build(seed)
	tb.shape = shape
	tb.pool = tp
	tb.tracer = trace.New()
	if sc.TraceEvents {
		tb.tracer = trace.NewDetailed()
		tb.clientTracer = trace.NewDetailed()
	}
	if sc.Metrics {
		tb.coll = metrics.New(sc.MetricsCadence, 0)
		tb.instrument(tb.coll)
	}
	return tb
}

// rewire resets a warm testbed of the scenario's shape into the exact
// state build+acquire would construct fresh: the simulator restarts at
// time zero with the run's seed, links take the scenario's configs, the
// network re-learns the topology's paths, and the recorders and
// collector are emptied. Endpoints are reset lazily in runPLT, where
// their configs are assembled.
func (sc Scenario) rewire(tb *testbed, seed int64) {
	tb.sim.Reset(seed)
	tb.net.Reset()
	tb.varier = nil
	if sc.Cell != nil {
		tb.down[0].Reset(sc.Cell.LinkConfig(true))
		tb.up[0].Reset(sc.Cell.LinkConfig(false))
		tb.net.SetPath(serverAddr, clientAddr, tb.down[0])
		tb.net.SetPath(clientAddr, serverAddr, tb.up[0])
	} else {
		cfg := sc.linkConfig()
		if sc.Proxy == NoProxy {
			tb.down[0].Reset(cfg)
			tb.up[0].Reset(cfg)
			tb.net.SetPath(serverAddr, clientAddr, tb.down[0])
			tb.net.SetPath(clientAddr, serverAddr, tb.up[0])
		} else {
			half := cfg
			half.Delay = cfg.Delay / 2
			half.LossProb = cfg.LossProb / 2
			for _, l := range tb.down {
				l.Reset(half)
			}
			for _, l := range tb.up {
				l.Reset(half)
			}
			tb.net.SetPath(proxyAddr, clientAddr, tb.down[0])
			tb.net.SetPath(clientAddr, proxyAddr, tb.up[0])
			tb.net.SetPath(serverAddr, proxyAddr, tb.down[1])
			tb.net.SetPath(proxyAddr, serverAddr, tb.up[1])
		}
		if sc.VarBW != nil {
			all := append(append([]*netem.Link{}, tb.down...), tb.up...)
			tb.varier = netem.VaryRate(tb.sim, sc.VarBW.Interval,
				int64(sc.VarBW.MinMbps*1e6), int64(sc.VarBW.MaxMbps*1e6), all...)
		}
	}
	tb.tracer.Reset()
	tb.clientTracer.Reset()
	if tb.coll != nil {
		tb.coll.Reset()
		tb.instrument(tb.coll) // Link.Reset detached the series
	}
}
