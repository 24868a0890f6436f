package main

import (
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRankOnSortedCopy(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	orig := slices.Clone(vals)
	for _, c := range []struct{ q, want float64 }{
		{0.2, 1}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5},
	} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", 100*c.q, got, c.want)
		}
	}
	if !slices.Equal(vals, orig) {
		t.Errorf("percentile reordered its input: %v", vals)
	}
	// Truncating q*(n-1) would report the minimum of two samples as p99.
	if got := percentile([]float64{10, 1}, 0.99); got != 10 {
		t.Errorf("p99 of two samples = %g, want the maximum", got)
	}
	if got := percentile([]float64{10, 1}, 0.5); got != 1 {
		t.Errorf("p50 of two samples = %g, want 1", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0.5},    // p90 leaves 5 beyond
		{100, 0.9},   // p90 leaves 10
		{270, 0.9},   // a fig13 run: three 90-point sweeps
		{252, 0.9},   // a serve pass: p99 leaves 2
		{999, 0.9},   // p99 leaves 9
		{1000, 0.99}, // p99 leaves 10
		{9999, 0.99}, // p99.9 leaves 9
		{10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	kids := []interval{
		{20, 50}, {10, 30}, // overlap: together [10,50)
		{60, 70},
		{65, 68},   // inside another child
		{90, 120},  // clipped to [90,100)
		{150, 160}, // outside the parent
	}
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {0, 100}}); got != 0 {
		t.Errorf("selfTime fully covered twice = %d, want 0", got)
	}
}

func TestBusyFracAndTailOnHandBuiltSchedule(t *testing.T) {
	// Two workers, four points:
	//   worker 1: A [0,4)  D [4,6)
	//   worker 2: B [0,2)  C [2,5)  idle [5,6)
	s := time.Second
	walls := []time.Duration{4 * s, 2 * s, 3 * s, 2 * s}
	done := []time.Duration{4 * s, 2 * s, 5 * s, 6 * s}
	end := 6 * s
	if got, want := busyFrac(walls, end, 2), 11.0/12; got != want {
		t.Errorf("busyFrac = %g, want %g", got, want)
	}
	// C's completion at 5s leaves one point for two workers.
	if got := tailTime(done, end, 2); got != s {
		t.Errorf("tailTime = %v, want 1s", got)
	}
	if got := tailTime(done, end, 1); got != 0 {
		t.Errorf("tailTime with one worker = %v, want 0", got)
	}
	if got := tailTime(done[:1], end, 2); got != end {
		t.Errorf("tailTime with fewer points than workers = %v, want the whole sweep", got)
	}
}
