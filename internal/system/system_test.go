package system

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"streamfloat/internal/stats"

	"streamfloat/internal/config"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/workload"
)

// testConfig returns a small 4x4 machine for fast tests.
func testConfig(sys string) config.Config {
	cfg, err := config.ForSystem(sys, config.OOO8)
	if err != nil {
		panic(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	return cfg
}

const testScale = 0.05

// TestAllBenchmarksAllSystems runs every workload under every comparison
// system on a small mesh: the core integration test of the whole simulator.
func TestAllBenchmarksAllSystems(t *testing.T) {
	for _, sys := range config.SystemNames() {
		for _, bench := range workload.Names() {
			sys, bench := sys, bench
			t.Run(sys+"/"+bench, func(t *testing.T) {
				cfg := testConfig(sys)
				res, err := RunBenchmark(context.Background(), cfg, bench, testScale)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Cycles == 0 {
					t.Fatal("zero cycles")
				}
				if res.Stats.Iterations == 0 {
					t.Fatal("no iterations retired")
				}
				if res.Stats.EnergyJ <= 0 {
					t.Fatal("no energy accounted")
				}
			})
		}
	}
}

// TestCoreKinds runs one benchmark on each core microarchitecture.
func TestCoreKinds(t *testing.T) {
	var cycles []uint64
	for _, core := range []config.CoreKind{config.IO4, config.OOO4, config.OOO8} {
		cfg, _ := config.ForSystem("Base", core)
		cfg.MeshWidth, cfg.MeshHeight = 4, 4
		res, err := RunBenchmark(context.Background(), cfg, "mv", testScale)
		if err != nil {
			t.Fatalf("%v: %v", core, err)
		}
		cycles = append(cycles, res.Stats.Cycles)
	}
	// A wider OOO core must not be slower than the in-order core.
	if cycles[2] > cycles[0] {
		t.Errorf("OOO8 (%d cycles) slower than IO4 (%d cycles)", cycles[2], cycles[0])
	}
}

// TestSFBeatsBaseOnStreaming checks the headline direction: stream floating
// speeds up a streaming-heavy, latency-sensitive workload relative to the
// plain baseline (on the in-order core, where latency exposure is largest).
func TestSFBeatsBaseOnStreaming(t *testing.T) {
	mk := func(sys string) config.Config {
		cfg := testConfig(sys)
		cfg.Core = config.IO4
		return cfg
	}
	base, err := RunBenchmark(context.Background(), mk("Base"), "conv3d", testScale)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := RunBenchmark(context.Background(), mk("SF"), "conv3d", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Stats.Cycles >= base.Stats.Cycles {
		t.Errorf("SF (%d cycles) not faster than Base (%d cycles) on conv3d/IO4",
			sf.Stats.Cycles, base.Stats.Cycles)
	}
}

// TestSFReducesTraffic checks the paper's central traffic claim: SF moves
// fewer flit-hops than Base on streaming workloads.
func TestSFReducesTraffic(t *testing.T) {
	base, err := RunBenchmark(context.Background(), testConfig("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := RunBenchmark(context.Background(), testConfig("SF"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Stats.TotalFlitHops() >= base.Stats.TotalFlitHops() {
		t.Errorf("SF (%d flit-hops) not below Base (%d) on nn",
			sf.Stats.TotalFlitHops(), base.Stats.TotalFlitHops())
	}
}

// TestDeterminism: identical configurations must produce identical results.
func TestDeterminism(t *testing.T) {
	a, err := RunBenchmark(context.Background(), testConfig("SF"), "bfs", testScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(context.Background(), testConfig("SF"), "bfs", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.TotalFlitHops() != b.Stats.TotalFlitHops() {
		t.Errorf("nondeterministic: %d/%d cycles, %d/%d flit-hops",
			a.Stats.Cycles, b.Stats.Cycles, a.Stats.TotalFlitHops(), b.Stats.TotalFlitHops())
	}
}

// TestFloatingHappens: SF must actually float streams and issue SE_L3
// requests on a streaming workload.
func TestFloatingHappens(t *testing.T) {
	res, err := RunBenchmark(context.Background(), testConfig("SF"), "mv", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StreamsFloated == 0 {
		t.Error("no streams floated")
	}
	if res.Stats.L3Requests[3]+res.Stats.L3Requests[2] == 0 { // affine+indirect float kinds
		t.Error("no floated L3 requests")
	}
	if res.Stats.StreamConfigs == 0 {
		t.Error("no stream configuration messages")
	}
}

// TestSSHidesLatencyOnIO4: the stream-specialized in-order core must beat
// the plain in-order core on a latency-bound scan.
func TestSSHidesLatencyOnIO4(t *testing.T) {
	mk := func(sys string) config.Config {
		cfg := testConfig(sys)
		cfg.Core = config.IO4
		return cfg
	}
	base, err := RunBenchmark(context.Background(), mk("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := RunBenchmark(context.Background(), mk("SS"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Stats.Cycles >= base.Stats.Cycles {
		t.Errorf("SS-IO4 (%d) not faster than Base-IO4 (%d)", ss.Stats.Cycles, base.Stats.Cycles)
	}
}

// TestConfluenceToggleAffectsTraffic: disabling confluence on conv3d must
// cost multicast savings.
func TestConfluenceToggleAffectsTraffic(t *testing.T) {
	on := testConfig("SF")
	off := on
	off.FloatConfluence = false
	rOn, err := RunBenchmark(context.Background(), on, "conv3d", testScale)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := RunBenchmark(context.Background(), off, "conv3d", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if rOn.Stats.L3Requests[4] == 0 {
		t.Fatal("no confluence requests with confluence on")
	}
	if rOff.Stats.L3Requests[4] != 0 {
		t.Fatal("confluence requests with confluence off")
	}
	if rOn.Stats.TotalFlitHops() >= rOff.Stats.TotalFlitHops() {
		t.Errorf("confluence did not reduce traffic: %d vs %d",
			rOn.Stats.TotalFlitHops(), rOff.Stats.TotalFlitHops())
	}
}

// TestInterleaveExtremes: SF must complete correctly at both 64B and 4kB
// interleaving, with far more migrations at the fine grain.
func TestInterleaveExtremes(t *testing.T) {
	run := func(grain int) Results {
		cfg := testConfig("SF")
		cfg.L3InterleaveBytes = grain
		res, err := RunBenchmark(context.Background(), cfg, "nn", testScale)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fine := run(64)
	coarse := run(4096)
	if fine.Stats.StreamMigrations <= coarse.Stats.StreamMigrations {
		t.Errorf("migrations: 64B=%d vs 4kB=%d", fine.Stats.StreamMigrations, coarse.Stats.StreamMigrations)
	}
}

// TestLinkWidthMonotonic: widening links must not slow anything down.
func TestLinkWidthMonotonic(t *testing.T) {
	run := func(bits int) uint64 {
		cfg := testConfig("Base")
		cfg.LinkBits = bits
		res, err := RunBenchmark(context.Background(), cfg, "conv3d", testScale)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	narrow, wide := run(128), run(512)
	if wide > narrow {
		t.Errorf("512-bit (%d cycles) slower than 128-bit (%d)", wide, narrow)
	}
}

// TestRunCycleBoundReported: exceeding the cycle budget is an error, not a
// hang or a silent truncation.
func TestRunCycleBoundReported(t *testing.T) {
	m, err := Build(testConfig("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err == nil {
		t.Fatal("100-cycle budget must be exceeded and reported")
	}
}

// TestEnergyAccounting: more capable machines finish faster; energy is
// accounted for every configuration.
func TestEnergyAccounting(t *testing.T) {
	for _, sys := range []string{"Base", "SF"} {
		res, err := RunBenchmark(context.Background(), testConfig(sys), "mv", testScale)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.EnergyJ <= 0 {
			t.Errorf("%s: no energy", sys)
		}
	}
}

// TestTLBTranslationsCounted: floating generates SE-side translations.
func TestTLBTranslationsCounted(t *testing.T) {
	res, err := RunBenchmark(context.Background(), testConfig("SF"), "mv", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TLBTranslations == 0 {
		t.Error("no SE TLB translations counted")
	}
}

// TestSummaryJSON: the run digest round-trips through JSON with sane values.
func TestSummaryJSON(t *testing.T) {
	res, err := RunBenchmark(context.Background(), testConfig("SF"), "conv3d", testScale)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Benchmark != "conv3d" || sum.Cycles == 0 || sum.FlitHops == 0 {
		t.Errorf("summary incomplete: %+v", sum)
	}
	if sum.L3FloatedShare <= 0 || sum.L3FloatedShare > 1 {
		t.Errorf("floated share = %v", sum.L3FloatedShare)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != sum {
		t.Error("JSON round-trip mismatch")
	}
}

// TestSFImprovesLoadLatency: floated data waits locally in SE_L2, so the
// p50 load latency must drop versus the baseline on a streaming workload.
func TestSFImprovesLoadLatency(t *testing.T) {
	base, err := RunBenchmark(context.Background(), testConfig("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := RunBenchmark(context.Background(), testConfig("SF"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	bp, sp := base.Stats.LoadLatencyPercentile(0.5), sf.Stats.LoadLatencyPercentile(0.5)
	if sp > bp {
		t.Errorf("SF p50 load latency %d above Base %d", sp, bp)
	}
	// SF must serve a meaningful share of loads at SE_L2-buffer speed
	// (single-digit cycles) where the baseline pays the full miss path.
	fast := func(s *stats.Stats) uint64 {
		return s.LoadLatency[0] + s.LoadLatency[1] + s.LoadLatency[2] + s.LoadLatency[3]
	}
	sfStats, baseStats := sf.Stats, base.Stats
	if fast(&sfStats) <= fast(&baseStats) {
		t.Errorf("SF fast loads %d not above Base %d", fast(&sfStats), fast(&baseStats))
	}
}

// TestFullMeshCancellation: a cancelled context stops a default-size (8x8,
// 64-tile) run with the sanitizer off — the path sfexp and sfserve take —
// and reports the cancellation.
func TestFullMeshCancellation(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize = sanitize.ModeOff
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBenchmark(ctx, cfg, "mv", 0.02); err == nil {
		t.Fatal("cancelled 64-tile run must report an error")
	}
}
