package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

// smallPoints is a two-point slice of the serve workloads' grid.
func smallPoints(t *testing.T) ([]point, map[string]uint64) {
	t.Helper()
	pts, err := servePoints(7)
	if err != nil {
		t.Fatal(err)
	}
	pts = pts[:2]
	iters, err := expectedIters(pts)
	if err != nil {
		t.Fatal(err)
	}
	return pts, iters
}

func TestCheckResultRejectsCorruptedResults(t *testing.T) {
	pts, iters := smallPoints(t)
	p := pts[0]
	res, err := simulate(context.Background(), nil, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(p, res, iters); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	short := res
	short.Stats.Iterations--
	if checkResult(p, short, iters) == nil {
		t.Error("a result missing an iteration passed")
	}
	other := res
	other.Config.LinkBits *= 2
	if checkResult(p, other, iters) == nil {
		t.Error("a result of another configuration passed")
	}
	if checkResult(pts[1], res, iters) == nil {
		t.Error("a result for another point passed")
	}
	if err := checkServed(p, res, res); err != nil {
		t.Fatalf("identical served result rejected: %v", err)
	}
	drift := res
	drift.Stats.L1Misses++
	if checkServed(p, drift, res) == nil {
		t.Error("a served result that differs from set-up passed")
	}
}

// TestHitLayersCountCorruptedDiskEntry corrupts one stored result on disk
// and expects serve-cold's hit-path checks to fail exactly that disk read:
// the backend's memory still holds the computed results.
func TestHitLayersCountCorruptedDiskEntry(t *testing.T) {
	ctx := context.Background()
	pts, iters := smallPoints(t)
	dir := filepath.Join(t.TempDir(), "store")
	store, err := serve.NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := startBackend(store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ref tally
	_, _, results := pass(ctx, b, nil, 2, pts, &ref, func(p point, res system.Results) error {
		return checkResult(p, res, iters)
	})
	b.close()
	if ref.failed != 0 {
		t.Fatalf("computing results: %v", ref.errs)
	}

	path := filepath.Join(dir, pts[1].Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entry map[string]any
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatal(err)
	}
	st := entry["results"].(map[string]any)["Stats"].(map[string]any)
	st["L2Evictions"] = st["L2Evictions"].(float64) + 1
	if data, err = json.Marshal(entry); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if err := rep.setHitLayers(ctx, store, dir, pts, results); err != nil {
		t.Fatal(err)
	}
	// DoPoint, memory Get, disk Get and ServeHTTP for every point.
	if rep.failed != 1 || rep.attempted != 4*len(pts) {
		t.Errorf("after corrupting one disk entry: %d of %d failed, want 1 (%v)", rep.failed, rep.attempted, rep.errs)
	}
}
