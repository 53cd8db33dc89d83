package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/web"
)

func TestBucketOfInnermostModuleFrame(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// A map lookup inside tcp is tcp's cost.
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast64", "quiclab/internal/tcp.(*Conn).ackSackedSegments", "quiclab/internal/sim.(*Simulator).RunUntil", "quiclab/internal/core.Scenario.runPLT"}, "tcp"},
		// An allocation (and its GC assist) inside quic is quic's cost.
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "quiclab/internal/quic.(*Conn).sendPacket", "quiclab/internal/sim.(*Simulator).RunUntil"}, "quic"},
		// Inlined frames come innermost first within a location.
		{[]string{"quiclab/internal/wire.TCPTimestampNow", "quiclab/internal/tcp.(*Conn).send"}, "wire"},
		{[]string{"quiclab/internal/sim.(*Simulator).RunUntil", "quiclab/internal/core.(*Matrix).Run.func3"}, "sim"},
		{[]string{"quiclab/internal/core"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.(*sweepLocked).sweep", "runtime.bgsweep"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketOther},
		{[]string{"main.(*bench).sweep", "main.main"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestSplitCPUCountsEverySampleOnce(t *testing.T) {
	samples := []stackSample{
		{frames: []string{"runtime.mapaccess2", "quiclab/internal/tcp.(*Conn).process"}, count: 3, nanos: 30},
		{frames: []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "quiclab/internal/quic.newPacket"}, count: 2, nanos: 20},
		{frames: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 1, nanos: 10},
		{frames: []string{"runtime.schedule"}, count: 1, nanos: 10},
		{frames: []string{"quiclab/internal/tcp.(*Conn).send"}, count: 1, nanos: 10},
	}
	s := splitCPU(samples)
	if !s.accounted() || s.samples != 8 || s.nanos != 80 {
		t.Fatalf("split %+v does not account for 8 samples / 80 ns", s)
	}
	want := map[string]bucketCost{"tcp": {4, 40}, "quic": {2, 20}, bucketGC: {1, 10}, bucketOther: {1, 10}}
	for name, c := range want {
		if s.buckets[name] != c {
			t.Errorf("bucket %s = %+v, want %+v", name, s.buckets[name], c)
		}
	}
	if len(s.buckets) != len(want) {
		t.Errorf("buckets %v, want exactly %v", s.buckets, want)
	}
	if s.mapNanos != 30 {
		t.Errorf("map view = %d ns, want 30", s.mapNanos)
	}
	if s.gcNanos != 30 { // the assist under quic and the background worker
		t.Errorf("gc view = %d ns, want 30", s.gcNanos)
	}
	if got := s.bucketNames(); got[0] != "tcp" || got[1] != "quic" {
		t.Errorf("bucketNames = %v, want tcp then quic first", got)
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	x := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			x += i ^ x>>3
		}
	}
	return x
}

var sink int

// The decoder reads a real runtime/pprof profile: samples carry the
// function names of their stacks and the count and CPU-time values.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range samples {
		if s.count <= 0 || s.nanos <= 0 {
			t.Fatalf("sample %+v lacks count or time", s)
		}
		for _, f := range s.frames {
			found = found || f == "quiclab/perfbench.burnCPU"
		}
	}
	if !found {
		t.Fatalf("no sample names quiclab/perfbench.burnCPU in %d samples", len(samples))
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input parsed without error")
	}
}

func TestAppendVarintsPackedAndUnpacked(t *testing.T) {
	// Field 1 written once packed ([3, 300]) and once unpacked (7).
	msg := []byte{0x0a, 0x03, 0x03, 0xac, 0x02, 0x08, 0x07}
	var got []uint64
	err := eachField(msg, func(num, wire int, v uint64, b []byte) error {
		if num == 1 {
			got = appendVarints(got, wire, v, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 300 || got[2] != 7 {
		t.Fatalf("varints = %v, want [3 300 7]", got)
	}
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated length-delimited field accepted")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true}, // p90 has rank 90: only 9 beyond
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("p90 of nothing = %g, want 0", got)
	}
}

func TestPLTDigest(t *testing.T) {
	a := []core.Comparison{{QUICMean: time.Second, TCPMean: 2 * time.Second}, {QUICMean: 3, TCPMean: 4}}
	same := []core.Comparison{{QUICMean: time.Second, TCPMean: 2 * time.Second, PctDiff: 9}, {QUICMean: 3, TCPMean: 4}}
	if pltDigest(a) != pltDigest(same) {
		t.Error("digest depends on more than the PLT means")
	}
	for _, other := range [][]core.Comparison{
		{{QUICMean: time.Second + 1, TCPMean: 2 * time.Second}, {QUICMean: 3, TCPMean: 4}},
		{{QUICMean: 2 * time.Second, TCPMean: time.Second}, {QUICMean: 3, TCPMean: 4}},
		{{QUICMean: 3, TCPMean: 4}, {QUICMean: time.Second, TCPMean: 2 * time.Second}},
		a[:1],
	} {
		if pltDigest(other) == pltDigest(a) {
			t.Errorf("digest of %v collides with %v", other, a)
		}
	}
}

func TestPLTFloor(t *testing.T) {
	sc := core.Scenario{RateMbps: 100, Page: web.Page{NumObjects: 1, ObjectSize: 10 << 20}}
	want := time.Duration(838860800) + time.Duration(0.96*float64(core.DefaultRTT))
	if got := pltFloor(sc); got != want {
		t.Fatalf("floor = %v, want %v", got, want)
	}
	sc.RTT = 100 * time.Millisecond
	if got := pltFloor(sc); got != 838860800+96*time.Millisecond {
		t.Fatalf("floor with 100ms RTT = %v", got)
	}
	scs := []core.Scenario{sc, sc}
	ok := core.Comparison{QUICMean: time.Second, TCPMean: time.Second}
	if bad := checkFloors(scs, []core.Comparison{ok, ok}); len(bad) != 0 {
		t.Errorf("means above the floor flagged: %v", bad)
	}
	low := core.Comparison{QUICMean: 950 * time.Millisecond, TCPMean: 500 * time.Millisecond}
	bad := checkFloors(scs, []core.Comparison{ok, low})
	if len(bad) != 1 || !strings.Contains(bad[0], "scenario 1: TCP") {
		t.Errorf("checkFloors = %v, want only scenario 1's TCP mean flagged", bad)
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &spans{list: []span{
		{name: "traced", parent: -1, start: 0, end: 100},
		{name: "sweep", parent: 0, start: 10, end: 60},
		{name: "Matrix.Run", parent: 1, start: 15, end: 55},
		{name: "sweep", parent: 0, start: 60, end: 90},
		{name: "Matrix.Run", parent: 3, start: 61, end: 89},
	}}
	want := []spanTotal{
		{"traced", 1, 100, 20},
		{"sweep", 2, 80, 12},
		{"Matrix.Run", 2, 68, 68},
	}
	got := s.totals()
	if len(got) != len(want) {
		t.Fatalf("totals = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("totals[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	var nilSpans *spans
	nilSpans.end(nilSpans.begin("x", -1)) // disabled recorder is a no-op
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bulk", "--trace", "2"},
		{"--workload", "bulk", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, out.String())
		}
	}
}

// BENCHMARK.json at the repository root must name exactly the program's
// workloads and metrics, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestWorkloadScenarios(t *testing.T) {
	for _, w := range workloads {
		scs := w.scenarios(42)
		if len(scs) != len(w.shapes) || w.cells() != 2*w.rounds*len(scs) {
			t.Errorf("%s: %d scenarios, %d cells", w.name, len(scs), w.cells())
		}
		for _, sc := range scs {
			if sc.Seed != 42 || sc.Device.Name != "Desktop" || sc.RTT != 0 || sc.RateMbps <= 0 {
				t.Errorf("%s: scenario %+v not seeded desktop at default RTT", w.name, sc)
			}
		}
		if got, ok := workloadByName(w.name); !ok || got.name != w.name {
			t.Errorf("workloadByName(%q) failed", w.name)
		}
	}
}
