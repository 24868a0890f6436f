package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// -update rewrites the golden metric files instead of comparing against
// them: go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenOpts is the spot scale the goldens were recorded at. Any change
// here invalidates every golden file.
func goldenOpts() Options {
	return Options{Scale: 0.05, Benchmarks: []string{"nn", "conv3d"}}
}

// checkGolden compares a figure's headline metrics against its checked-in
// golden file, exactly. Floats are compared as their shortest round-trip
// decimal form (strconv 'g'/-1), so any bit-level drift in results fails.
func checkGolden(t *testing.T, name string, metrics map[string]float64) {
	t.Helper()
	got := make(map[string]string, len(metrics))
	for k, v := range metrics {
		got[k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	path := filepath.Join("testdata", name+".json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d metrics", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("metric %q in golden file but not produced", k)
			continue
		}
		if g != w {
			t.Errorf("metric %q = %s, golden %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("metric %q produced but not in golden file", k)
		}
	}
}

// checkGoldenFigure regenerates one figure with the sanitizer on and off and
// compares both against the same golden file. The sanitizer-off run is the
// code path sfexp and sfserve take; the sanitizer-on run proves the probes
// stay silent and change nothing.
func checkGoldenFigure(t *testing.T, name string, fig func(Options) (*Table, error)) {
	for _, mode := range []sanitize.Mode{sanitize.ModeOn, sanitize.ModeOff} {
		t.Run("sanitize="+mode.String(), func(t *testing.T) {
			opts := goldenOpts()
			opts.Sanitize = mode
			tbl, err := fig(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, tbl.Metrics)
		})
	}
}

// TestGoldenFig13 pins the headline speedup and energy-efficiency geomeans
// of every system/core pair at spot scale.
func TestGoldenFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig 13 sweep (30 runs) skipped in -short")
	}
	checkGoldenFigure(t, "golden_fig13", Fig13)
}

// TestGoldenFig14 pins the floated-request share of SF-OOO8.
func TestGoldenFig14(t *testing.T) {
	checkGoldenFigure(t, "golden_fig14", Fig14)
}

// TestGoldenFig15 pins the normalized NoC traffic and utilization of every
// Fig 15 variant at spot scale.
func TestGoldenFig15(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig 15 sweep (18 runs) skipped in -short")
	}
	checkGoldenFigure(t, "golden_fig15", Fig15)
}

// TestDeterministicStats: the same configuration run twice produces
// bit-identical statistics — every counter, histogram bucket and energy
// figure, not just the headline cycles. mv (offset groups) and bfs
// (indirect streams) exercise the float teardown paths where map-order
// nondeterminism once lived.
func TestDeterministicStats(t *testing.T) {
	for _, bench := range []string{"nn", "mv", "bfs"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			run := func() system.Results {
				cfg, err := config.ForSystem("SF", config.OOO8)
				if err != nil {
					t.Fatal(err)
				}
				res, err := system.RunBenchmark(context.Background(), cfg, bench, goldenOpts().scale())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				av, bv := reflect.ValueOf(a.Stats), reflect.ValueOf(b.Stats)
				for i := 0; i < av.NumField(); i++ {
					if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
						t.Errorf("field %s: %v vs %v",
							av.Type().Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface())
					}
				}
				t.Fatal("two identical runs differ")
			}
			if a.NumLinks != b.NumLinks {
				t.Fatalf("link counts differ: %d vs %d", a.NumLinks, b.NumLinks)
			}
		})
	}
}

// TestSweepParallelismInvariant: a sweep produces bit-identical results
// regardless of how many simulations run concurrently (results are stored
// in input order and each simulation is self-contained).
func TestSweepParallelismInvariant(t *testing.T) {
	keys := []runKey{
		{bench: "nn", system: "Base", core: config.OOO8},
		{bench: "nn", system: "SS", core: config.OOO8},
		{bench: "nn", system: "SF", core: config.OOO8},
		{bench: "conv3d", system: "SF", core: config.IO4},
		{bench: "conv3d", system: "SF", core: config.OOO8},
		{bench: "mv", system: "SF", core: config.OOO8},
	}
	serial := goldenOpts()
	serial.Parallelism = 1
	wide := goldenOpts()
	wide.Parallelism = 4
	a, err := runAll(context.Background(), serial, keys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runAll(context.Background(), wide, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !reflect.DeepEqual(a[i].Stats, b[i].Stats) {
			t.Errorf("%s/%s/%v: serial and parallel sweeps differ",
				keys[i].bench, keys[i].system, keys[i].core)
		}
	}
}
