// Benchmark harness: one testing.B benchmark per table/figure of the paper.
// Each benchmark regenerates its figure at a reduced dataset scale and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=Fig13 -benchmem
//
// prints the reproduced speedups next to ns/op. Use -benchtime=1x (the
// default behaviour for these long benchmarks) and see EXPERIMENTS.md for
// full-scale paper-vs-measured results.
package streamfloat

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"streamfloat/internal/experiments"
)

// benchScale keeps a full figure regeneration in the seconds-to-minutes
// range; sfexp -scale 1.0 reproduces the calibrated sizes.
const benchScale = 0.1

// benchOpts disables the sanitizer explicitly: benchmarks run inside a test
// binary, where the auto mode would otherwise turn probes on and taint the
// throughput numbers.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale, Sanitize: SanitizeOff}
}

// reportTable attaches a figure's headline metrics to the benchmark result
// and logs the full table.
func reportTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	keys := make([]string, 0, len(t.Metrics))
	for k := range t.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(t.Metrics[k], k)
	}
	if testing.Verbose() {
		t.Fprint(logWriter{b})
	}
}

type logWriter struct{ b *testing.B }

func (w logWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = logWriter{}

func runFigure(b *testing.B, fn func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, t)
		}
	}
}

// BenchmarkFig02a_CacheThrashing regenerates Fig 2a: the fraction of L2
// evictions that are clean and unreused, and their stream-covered share.
func BenchmarkFig02a_CacheThrashing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig02(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Metrics["evict-clean-noreuse"], "evict-clean-noreuse")
			b.ReportMetric(t.Metrics["stream-covered"], "stream-covered")
		}
	}
}

// BenchmarkFig02b_UnreusedTraffic regenerates Fig 2b: NoC flits caused by
// caching data that is never reused.
func BenchmarkFig02b_UnreusedTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig02(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(t.Metrics["unreused-traffic"], "unreused-traffic")
		}
	}
}

// BenchmarkFig13_SpeedupEnergy regenerates the headline speedup/energy
// comparison across Base/Stride/Bingo/SS/SF and IO4/OOO4/OOO8.
func BenchmarkFig13_SpeedupEnergy(b *testing.B) { runFigure(b, experiments.Fig13) }

// BenchmarkFig13Sampled_SpeedupEnergy regenerates Fig 13 under sampled
// simulation (K=16, centered block): the same sweep as
// BenchmarkFig13_SpeedupEnergy at ~3x less detailed-simulation work, with
// the figure metrics now estimates. Comparing the two benchmarks' ns/op
// measures the sampling subsystem's end-to-end payoff; comparing their
// metrics bounds its bias.
func BenchmarkFig13Sampled_SpeedupEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Sample = SampleParams{Intervals: 16}
		t, err := experiments.Fig13(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportTable(b, t)
		}
	}
}

// BenchmarkFig14_FloatingRequests regenerates the L3 request breakdown.
func BenchmarkFig14_FloatingRequests(b *testing.B) { runFigure(b, experiments.Fig14) }

// BenchmarkFig15_NoCTraffic regenerates the traffic/utilization comparison
// including the bulk-prefetch and SF-Aff/SF-Ind ablations.
func BenchmarkFig15_NoCTraffic(b *testing.B) { runFigure(b, experiments.Fig15) }

// BenchmarkFig16_LinkWidth regenerates the link-width sensitivity study.
func BenchmarkFig16_LinkWidth(b *testing.B) { runFigure(b, experiments.Fig16) }

// BenchmarkFig17_NUCAInterleave regenerates the NUCA granularity sweep.
func BenchmarkFig17_NUCAInterleave(b *testing.B) { runFigure(b, experiments.Fig17) }

// BenchmarkFig18_CoreScaling regenerates the 4x4/4x8/8x8 scaling study.
func BenchmarkFig18_CoreScaling(b *testing.B) { runFigure(b, experiments.Fig18) }

// BenchmarkFig19_EnergySpeedupPareto regenerates the energy-vs-speedup
// scatter across all cores and systems.
func BenchmarkFig19_EnergySpeedupPareto(b *testing.B) { runFigure(b, experiments.Fig19) }

// BenchmarkSingleRun measures raw simulator throughput on one mid-sized
// configuration (not a paper figure; a performance regression canary).
func BenchmarkSingleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := ConfigFor("SF", OOO8)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MeshWidth, cfg.MeshHeight = 4, 4
		cfg.Sanitize = SanitizeOff
		res, err := Run(cfg, "mv", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Cycles), "sim-cycles")
		}
	}
}

// BenchmarkTraceOverhead is BenchmarkSingleRun with the structured tracer
// attached: the delta between the two is the cost of tracing-on mode (the
// disabled mode is guarded separately by TestTracerDisabledOverhead).
func BenchmarkTraceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := ConfigFor("SF", OOO8)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MeshWidth, cfg.MeshHeight = 4, 4
		cfg.Sanitize = SanitizeOff
		res, tr, err := RunTraced(cfg, "mv", "SF/OOO8", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Cycles), "sim-cycles")
			b.ReportMetric(float64(tr.Attribution().Loads), "probed-loads")
		}
	}
}

// Example of the one-call API (compiled and run by go test).
func ExampleRun() {
	cfg, err := ConfigFor("SF", IO4)
	if err != nil {
		panic(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	res, err := Run(cfg, "nn", 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Benchmark, res.Stats.Cycles > 0, res.Stats.StreamsFloated > 0)
	// Output: nn true true
}

// BenchmarkAblations sweeps the design choices DESIGN.md calls out:
// SE_L2 buffer capacity, confluence block size, float threshold.
func BenchmarkAblations(b *testing.B) { runFigure(b, experiments.Ablations) }
