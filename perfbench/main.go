// Command perfbench is quiclab's sweep benchmark. Each workload is one
// closed-loop Matrix sweep of paired QUIC-vs-TCP cells, driven only
// through the public core API; a run repeats the sweep back to back for
// the requested time and reports medians over the sweeps.
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced sweeps.
// With --trace 1 it runs untraced sweeps, then the same sweeps with a
// run ledger (which forces metrics, event tracing and stall profiling
// on) under a CPU profile, then replays a fixed sample of the workload's
// scenarios through Scenario.RunPLT, and prints the per-layer metrics.
// Either way it checks the outputs (every PLT mean above its physical
// floor, identical PLT digests and failure counts across sweeps, and
// with --trace 1 the traced digest equal to the untraced one) and ends
// with one JSON line.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"quiclab/internal/core"
	"quiclab/internal/obs"
)

// processStart approximates process start: main-package variables are
// initialised after the runtime and every imported package.
var processStart = time.Now()

// Seeds: the default for every measurement and a held-out seed on which
// a claimed gain must also hold.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// workers is the sweeps' Matrix parallelism. One worker leaves the
// second CPU of a two-CPU box to the garbage collector: on a shared
// 2-vCPU host the run-to-run spread of pages' wall-time cells_per_s was
// 0.23-0.25 of its median with two workers and 0.14-0.21 with one.
const workers = 1

// minTracedCells keeps the traced cell-wall sample large enough for a
// p90 with ten samples beyond it.
const minTracedCells = 100

type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics (--trace 0). The times are process
// CPU time, not wall time: on a shared host the wall time of the same
// sweep stretches whenever another tenant takes the CPU, while its CPU
// time does not. One worker's wall time per cell equals its CPU time on
// an idle machine; cells_per_s, the wall-time view, is a per-layer
// metric.
var endToEnd = []metricDef{
	{"cpu_ms_per_cell", "ms"},
	{"allocs_per_cell", "count"},
	{"alloc_kb_per_cell", "KiB"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// cpuBuckets are the buckets whose CPU the traced run reports per cell:
// modules, plus the runtime work no module frame explains.
// The printed table lists every bucket, these and any other.
var cpuBuckets = []string{"tcp", "quic", "sim", "netem", "cc", "ranges", "wire", "web", "core", "trace", "metrics", "profile", bucketGC, bucketOther}

// perLayer are the traced-run metrics (--trace 1).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range cpuBuckets {
		defs = append(defs, metricDef{m + ".cpu_ms_per_cell", "ms"})
	}
	defs = append(defs,
		metricDef{"runtime.map_ms_per_cell", "ms"},
		metricDef{"runtime.gc_ms_per_cell", "ms"},
		metricDef{"runtime.gc_cycles_per_kcell", "count"},
		metricDef{"core.engine_overhead_share", "share"},
		metricDef{"core.testbed_reuse_share", "share"},
		metricDef{"core.cell_ms_p50", "ms"},
		metricDef{"core.cell_ms_p90", "ms"},
		metricDef{"cells_per_s", "1/s"},
		metricDef{"failed_share", "share"},
	)
	for _, p := range []string{"quic", "tcp"} {
		defs = append(defs,
			metricDef{p + ".pkts_sent_per_cell", "count"},
			metricDef{p + ".lost_share", "share"},
			metricDef{p + ".spurious_share", "share"},
			metricDef{p + ".tlps_per_cell", "count"},
			metricDef{p + ".rtos_per_cell", "count"},
			metricDef{p + ".wire_bytes_per_goodput_byte", "ratio"},
		)
	}
	defs = append(defs,
		metricDef{"netem.drops_per_cell", "count"},
		metricDef{"netem.queue_kb_max", "KiB"},
	)
	for _, s := range waitStates {
		defs = append(defs, metricDef{"wait." + s + "_share", "share"})
	}
	return append(defs, metricDef{"trace.overhead_share", "share"})
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk, pages or lossy")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 30, "wall seconds measured per phase")
	traced := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the traced run's temporary ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want bulk, pages or lossy)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b := &bench{
		w:      w,
		seed:   *seed,
		period: time.Duration(*seconds * float64(time.Second)),
		out:    stdout,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d workers=%d seconds=%g trace=%d cells/sweep=%d\n",
		w.name, b.seed, workers, *seconds, *traced, w.cells())
	var res result
	var err error
	if *traced == 0 {
		res, err = b.untraced()
	} else {
		res, err = b.traced(*workdir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	w      workload
	seed   int64
	period time.Duration
	scs    []core.Scenario
	spans  *spans // nil in untraced runs
	out    io.Writer
	bad    []string // failed output checks
}

func (b *bench) fail(format string, args ...any) { b.bad = append(b.bad, fmt.Sprintf(format, args...)) }

// report prints each metric of defs by name with its unit, then any
// failed check, and returns the result line. Every name in defs must
// be in vals.
func (b *bench) report(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		fmt.Fprintf(b.out, "metric %s %s %.6g %s\n", b.w.name, d.name, v, d.unit)
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, p := range b.bad {
		fmt.Fprintln(b.out, "CHECK FAILED:", p)
	}
	return result{Correct: len(b.bad) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// setUp generates the scenarios and runs a one-round warm-up sweep, which
// builds a testbed for every scenario shape and protocol and fills the
// transports' sync.Pools. It returns the pass's wall and CPU time in
// seconds; the first pass of a run is timed from process start.
func (b *bench) setUp() (wall, cpu float64) {
	t0, c0 := time.Now(), processCPU()
	if b.scs == nil {
		t0, c0 = processStart, 0
	}
	sp := b.spans.begin("setup", -1)
	b.scs = b.w.scenarios(b.seed)
	b.sweep(core.Options{Seed: b.seed, Rounds: 1, Parallelism: workers}, sp)
	b.spans.end(sp)
	return time.Since(t0).Seconds(), (processCPU() - c0).Seconds()
}

// sweepResult is one finished sweep.
type sweepResult struct {
	cells, failed int
	wall          time.Duration
	cpu           time.Duration // process CPU time, every thread
	mallocs       uint64
	allocBytes    uint64
	gcs           uint32
	stats         core.MatrixStats
	cms           []core.Comparison
}

func (s sweepResult) cellsPerSec() float64 { return float64(s.cells) / s.wall.Seconds() }

func (s sweepResult) cpuMSPerCell() float64 { return ms(s.cpu) / float64(s.cells) }

// sweep runs one Matrix sweep over the set-up scenarios.
func (b *bench) sweep(o core.Options, parent int) sweepResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := b.spans.begin("sweep", parent)
	t0, c0 := time.Now(), processCPU()
	m := core.NewMatrix(b.w.experiment(), o)
	cms := make([]*core.Comparison, len(b.scs))
	for i, sc := range b.scs {
		cms[i] = m.Compare(sc)
	}
	run := b.spans.begin("Matrix.Run", sp)
	st := m.Run()
	b.spans.end(run)
	wall, cpu := time.Since(t0), processCPU()-c0
	b.spans.end(sp)
	runtime.ReadMemStats(&after)
	r := sweepResult{
		cells:      st.Cells,
		wall:       wall,
		cpu:        cpu,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcs:        after.NumGC - before.NumGC,
		stats:      st,
		cms:        make([]core.Comparison, len(cms)),
	}
	for i, cm := range cms {
		r.cms[i] = *cm
		r.failed += cm.Incomplete
	}
	return r
}

// measure runs back-to-back sweeps of the workload, calling between (if
// set) after each, until the period has elapsed and at least minCells
// cells have run, then checks their
// outputs: every sweep simulated the same PLT means and failed the same
// number of cells, and each mean clears its physical floor. It prints
// the PLT digest and the per-sweep rates.
func (b *bench) measure(o core.Options, minCells int, phase string, between func()) ([]sweepResult, uint64) {
	sp := b.spans.begin(phase, -1)
	o.Seed, o.Rounds, o.Parallelism = b.seed, b.w.rounds, workers
	var sweeps []sweepResult
	cells := 0
	for t0 := time.Now(); len(sweeps) == 0 || time.Since(t0) < b.period || cells < minCells; {
		s := b.sweep(o, sp)
		sweeps = append(sweeps, s)
		cells += s.cells
		if between != nil {
			between()
		}
	}
	b.spans.end(sp)

	d := pltDigest(sweeps[0].cms)
	for i, s := range sweeps[1:] {
		if got := pltDigest(s.cms); got != d {
			b.fail("%s sweep %d: PLT digest %016x differs from sweep 0's %016x", phase, i+1, got, d)
		}
		if s.failed != sweeps[0].failed {
			b.fail("%s sweep %d: %d cells failed, sweep 0 had %d", phase, i+1, s.failed, sweeps[0].failed)
		}
	}
	b.bad = append(b.bad, checkFloors(b.scs, sweeps[0].cms)...)
	fmt.Fprintf(b.out, "digest %s %s %016x\n", b.w.name, phase, d)
	fmt.Fprintf(b.out, "sweeps %s %s cells/s:", b.w.name, phase)
	for _, s := range sweeps {
		fmt.Fprintf(b.out, " %.1f", s.cellsPerSec())
	}
	fmt.Fprintf(b.out, "\nsweeps %s %s cpu ms/cell:", b.w.name, phase)
	for _, s := range sweeps {
		fmt.Fprintf(b.out, " %.4g", s.cpuMSPerCell())
	}
	fmt.Fprintln(b.out)
	return sweeps, d
}

func totals(sweeps []sweepResult) (cells, failed int) {
	for _, s := range sweeps {
		cells += s.cells
		failed += s.failed
	}
	return cells, failed
}

// distinct returns the cells of one sweep and how many of them failed.
// Every sweep of a phase repeats the same cells, and measure checks that
// each fails the same number, so this count depends on the seed alone,
// not on how many sweeps fit in the period.
func distinct(sweeps []sweepResult) (cells, failed int) {
	return sweeps[0].cells, sweeps[0].failed
}

func medianOf(sweeps []sweepResult, f func(sweepResult) float64) float64 {
	xs := make([]float64, len(sweeps))
	for i, s := range sweeps {
		xs[i] = f(s)
	}
	return median(xs)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad pointer or selector fails
	}
	return ru
}

// maxRSSMiB is the process's peak resident set; Linux reports it in KiB.
func maxRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// processCPU is the user and system CPU time of every thread of the
// process since it started.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// untraced measures the end-to-end metrics with no instrumentation on.
// It sets up once before the first sweep and again after every sweep;
// setup_s is the median CPU time of those passes. The host's speed
// drifts over seconds, so passes spread over the run see the same mix
// of its states as the sweeps do, where a block of passes up front
// would see only its first seconds.
func (b *bench) untraced() (result, error) {
	var walls, cpus []float64
	setUp := func() {
		w, c := b.setUp()
		walls, cpus = append(walls, w), append(cpus, c)
	}
	setUp()
	sweeps, _ := b.measure(core.Options{}, 0, "untraced", setUp)
	fmt.Fprintf(b.out, "setup %s: %d passes; first pass wall %.4g s cpu %.4g s; median wall %.4g s cpu %.4g s\n",
		b.w.name, len(walls), walls[0], cpus[0], median(walls), median(cpus))
	cells, failed := distinct(sweeps)
	vals := map[string]float64{
		"cpu_ms_per_cell":   medianOf(sweeps, sweepResult.cpuMSPerCell),
		"allocs_per_cell":   medianOf(sweeps, func(s sweepResult) float64 { return float64(s.mallocs) / float64(s.cells) }),
		"alloc_kb_per_cell": medianOf(sweeps, func(s sweepResult) float64 { return float64(s.allocBytes) / 1024 / float64(s.cells) }),
		"max_rss_mb":        maxRSSMiB(),
		"setup_s":           median(cpus),
	}
	// Printed, not gated: the wall-time view of cpu_ms_per_cell.
	fmt.Fprintf(b.out, "metric %s cells_per_s %.6g 1/s\n", b.w.name, medianOf(sweeps, sweepResult.cellsPerSec))
	fmt.Fprintf(b.out, "metric %s failed_share %.6g share (%d of %d cells)\n", b.w.name, float64(failed)/float64(cells), failed, cells)
	return b.report(endToEnd, vals, cells, failed)
}

// traced measures the per-layer metrics: untraced sweeps (the overhead
// baseline, and the engine and runtime counters that cost nothing to
// read), then ledger-instrumented sweeps under a CPU profile, then the
// RunPLT replay sample.
func (b *bench) traced(workdir string) (result, error) {
	b.spans = newSpans()
	b.setUp()
	plain, plainDigest := b.measure(core.Options{}, 0, "untraced", nil)

	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workdir, "perfbench-ledger-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	ledger, err := obs.CreateLedger(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		return result{}, err
	}
	tel := obs.NewTelemetry()
	var cellMS []float64
	o := core.Options{
		Telemetry: tel,
		Ledger:    ledger,
		Progress:  func(ct core.CellTiming) { cellMS = append(cellMS, ms(ct.Wall)) },
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		ledger.Close()
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	inst, instDigest := b.measure(o, minTracedCells, "traced", nil)
	pprof.StopCPUProfile()
	if err := ledger.Close(); err != nil {
		return result{}, fmt.Errorf("ledger: %w", err)
	}
	for _, s := range inst {
		if s.stats.LedgerErr != nil {
			return result{}, fmt.Errorf("ledger: %w", s.stats.LedgerErr)
		}
	}
	if instDigest != plainDigest {
		b.fail("traced PLT digest %016x differs from untraced %016x: instrumentation is not passive", instDigest, plainDigest)
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	split := splitCPU(samples)
	if !split.accounted() {
		b.fail("CPU profile buckets do not account for every sample exactly once")
	}
	instCells, _ := totals(inst)
	b.printSplit(split, instCells)

	rep := b.replay()
	b.bad = append(b.bad, rep.bad...)
	b.spans.report(b.out)

	plainCells, _ := totals(plain)
	vals := map[string]float64{}
	perCell := func(nanos int64) float64 { return float64(nanos) / 1e6 / float64(instCells) }
	for _, m := range cpuBuckets {
		vals[m+".cpu_ms_per_cell"] = perCell(split.buckets[m].nanos)
	}
	vals["runtime.map_ms_per_cell"] = perCell(split.mapNanos)
	vals["runtime.gc_ms_per_cell"] = perCell(split.gcNanos)
	var gcs uint32
	for _, s := range plain {
		gcs += s.gcs
	}
	vals["runtime.gc_cycles_per_kcell"] = 1000 * float64(gcs) / float64(plainCells)
	vals["core.engine_overhead_share"] = medianOf(plain, func(s sweepResult) float64 {
		return 1 - s.stats.CellWall.Seconds()/(float64(s.stats.Workers)*s.stats.Wall.Seconds())
	})
	snap := tel.Snapshot()
	vals["core.testbed_reuse_share"] = float64(snap.TestbedReuses) / float64(snap.TestbedBuilds+snap.TestbedReuses)
	if p, ok := tailPercentile(len(cellMS)); ok {
		fmt.Fprintf(b.out, "cell wall (traced) %s: n=%d p50=%.4g ms p%g=%.4g ms\n", b.w.name, len(cellMS), percentile(cellMS, 50), p, percentile(cellMS, p))
	}
	vals["core.cell_ms_p50"] = percentile(cellMS, 50)
	vals["core.cell_ms_p90"] = percentile(cellMS, 90)
	plainDistinct, plainFailed := distinct(plain)
	instDistinct, instFailed := distinct(inst)
	vals["cells_per_s"] = medianOf(plain, sweepResult.cellsPerSec)
	vals["failed_share"] = float64(plainFailed) / float64(plainDistinct)
	rep.fill(vals)
	vals["trace.overhead_share"] = 1 - medianOf(inst, sweepResult.cellsPerSec)/medianOf(plain, sweepResult.cellsPerSec)
	return b.report(perLayer, vals, plainDistinct+instDistinct+rep.cells, plainFailed+instFailed+rep.failed)
}

// printSplit prints the traced run's CPU by bucket, which together hold
// every profile sample exactly once, then the cross-cutting views.
func (b *bench) printSplit(s cpuSplit, cells int) {
	fmt.Fprintf(b.out, "cpu %s: %d samples, %.1f ms over %d traced cells\n", b.w.name, s.samples, float64(s.nanos)/1e6, cells)
	for _, name := range s.bucketNames() {
		c := s.buckets[name]
		fmt.Fprintf(b.out, "cpu %s %-14s %6d samples %5.1f%% %.4g ms/cell\n", b.w.name, name, c.samples,
			100*float64(c.nanos)/float64(s.nanos), float64(c.nanos)/1e6/float64(cells))
	}
	fmt.Fprintf(b.out, "cpu %s views: runtime.map %.1f%% runtime.gc %.1f%%\n", b.w.name,
		100*float64(s.mapNanos)/float64(s.nanos), 100*float64(s.gcNanos)/float64(s.nanos))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
