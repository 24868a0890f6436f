// Command perfbench is the repository's benchmark. It runs one workload —
// the Fig 13 sweep or cold sfserve traffic — checks every result it gets
// back, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run, --trace 1) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 270, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload fig13 --seed 1 --seconds 30 --trace 0
//
// The benchmark times the layers from outside, around its own calls into
// their public functions. BENCHMARK.json lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	callers int    // closed-loop concurrency: one caller per CPU
	tmp     string // scratch directory inside the checkout
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports for every workload.
// Throughput, points_per_s, is printed beside them; at a fixed point count
// it carries the same information as sweep_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"point_p50_ms", "ms"},
	{"point_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports for every workload; a
// layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"experiments.busy_frac", "ratio"},
	{"experiments.tail_s", "s"},
	{"experiments.point_max_ms", "ms"},
	{"workload.prepare_s", "s"},
	{"system.build_s", "s"},
	{"system.build_allocs", "count"},
	{"system.build_share", "ratio"},
	{"system.run_s", "s"},
	{"system.run_allocs", "count"},
	{"system.run_mb", "MB"},
	{"system.events", "count"},
	{"system.host_ns_per_event", "ns"},
	{"system.sim_instr_per_s", "1/s"},
	{"sim.cycles", "cycles"},
	{"cpu.instructions", "count"},
	{"cpu.iterations", "count"},
	{"cache.l1_misses", "count"},
	{"cache.l2_evictions", "count"},
	{"cache.l3_requests", "count"},
	{"noc.flit_hops", "count"},
	{"noc.messages", "count"},
	{"mem.dram_reads", "count"},
	{"core.streams_floated", "count"},
	{"core.sel3_accesses", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.useful", "count"},
	{"serve.store_get_mem_us", "us"},
	{"serve.store_get_disk_us", "us"},
	{"serve.store_put_us", "us"},
	{"serve.store_hits", "count"},
	{"serve.store_disk_hits", "count"},
	{"serve.store_misses", "count"},
	{"serve.store_dedups", "count"},
	{"serve.store_disk_errs", "count"},
	{"serve.handler_hit_us", "us"},
	{"serve.response_bytes", "B"},
	{"serve.rejected", "count"},
	{"cluster.dopoint_hit_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.retries", "count"},
	{"cluster.fallbacks", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// report is what a workload hands back: the outcome tally, its metrics, and
// human-only figures printed by name but kept out of the JSON result.
type report struct {
	tally
	metrics map[string]float64
	extra   []string
	spans   []span
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// note adds a human-readable line such as a metric that applies to this
// workload only.
func (r *report) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// tally counts attempted and failed operations. An operation fails when it
// errors, fails its correctness check, or is served by a local fallback.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.logLocked(err)
	}
}

// logErr keeps err for the failure report without counting an operation.
func (t *tally) logErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.logLocked(err)
}

func (t *tally) logLocked(err error) {
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
}

// outDir, under the checkout root, holds the spans of traced runs and each
// run's scratch stores; run.sh builds into it too.
const outDir = ".bench_build/perfbench"

var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"fig13":      runFig13,
	"serve-cold": runServeCold,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fig13 or serve-cold")
	seed := flag.Uint64("seed", 1, "seed for the serve workloads' point order")
	seconds := flag.Int("seconds", 20, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	host := fingerprint()
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%d callers=%d\n", *name, *seed, *seconds, *trace, runtime.NumCPU())

	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, callers: runtime.NumCPU(), tmp: tmp,
	}
	rep, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	if rep.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing attempted")
		return 1
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		meta := map[string]any{"host": host, "workload": *name, "seed": *seed}
		if err := writeSpans(path, meta, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans %d written to %s\n", len(rep.spans), path)
	} else {
		rep.note("error_rate %g ratio (%d of %d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	}
	result := map[string]any{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.traced {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		fmt.Printf("metric %s %g %s\n", d.name, v, d.unit)
		result[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, line := range rep.extra {
		fmt.Printf("metric %s\n", line)
	}
	correct := rep.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": result,
	})
	if err != nil { // a NaN or infinite metric
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// measureSetup runs setup n times and returns the median wall time and the
// last set-up's value; each earlier value is released with drop.
func measureSetup[T any](n int, setup func() (T, error), drop func(T)) (time.Duration, T, error) {
	var last T
	walls := make([]float64, 0, n)
	for i := range n {
		if i > 0 {
			drop(last)
		}
		// Each set-up starts from a collected heap, so one set-up's garbage
		// does not bill the next.
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		walls = append(walls, float64(time.Since(t0)))
		last = v
	}
	return time.Duration(median(walls)), last, nil
}

// setupRepeats is how many times a run sets up, reporting the median.
const setupRepeats = 15

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1000, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// rtSnap is a snapshot of the Go runtime's cumulative counters.
type rtSnap struct {
	alloc, mallocs  uint64
	gcs             uint32
	gcCPU, totalCPU float64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return rtSnap{
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC,
		gcCPU: samples[0].Value.Float64(), totalCPU: samples[1].Value.Float64(),
	}
}

// setRuntime reports the runtime's work between two snapshots.
func (r *report) setRuntime(a, b rtSnap) {
	r.set("runtime.alloc_mb", float64(b.alloc-a.alloc)/1e6)
	r.set("runtime.mallocs", float64(b.mallocs-a.mallocs))
	r.set("runtime.gc_cycles", float64(b.gcs-a.gcs))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		r.set("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
}

// host identifies the machine and code a result came from; results from
// different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	return host{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checkout's git HEAD without running git; a checkout that
// is not a git repository reports "none".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
