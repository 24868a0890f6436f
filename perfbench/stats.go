package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of vals: the
// value at rank ceil(q*n) of a sorted copy. vals itself is left unsorted, so
// callers may keep appending to it. An empty input yields 0.
func percentile(vals []float64, q float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank(n, q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tailQuantile picks the highest candidate percentile that still has at least
// ten samples strictly beyond its nearest rank, so the reported tail is never
// set by a handful of outliers. It falls back to the median when even p90
// has fewer than ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-rank(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// median is percentile(vals, 0.5).
func median(vals []float64) float64 { return percentile(vals, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime is the duration of parent minus the part of it covered by the
// union of the children's intervals (each clipped to the parent), so
// overlapping or concurrent children are not subtracted twice.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.lo <= curHi {
			curHi = max(curHi, c.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = c.lo, c.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.hi - parent.lo - covered
}

// busyFrac is the share of the sweep's worker capacity spent inside points:
// the summed point walls over (sweep wall x parallelism).
func busyFrac(pointWalls []time.Duration, sweep time.Duration, parallelism int) float64 {
	if sweep <= 0 || parallelism <= 0 {
		return 0
	}
	var sum time.Duration
	for _, w := range pointWalls {
		sum += w
	}
	return float64(sum) / (float64(sweep) * float64(parallelism))
}

// tailTime is how long the sweep ran after fewer than parallelism points
// remained unfinished, i.e. after its workers began to go idle. done holds
// every point's completion time and end the sweep's end, both measured from
// the sweep's start. A sweep with fewer points than workers is all tail.
func tailTime(done []time.Duration, end time.Duration, parallelism int) time.Duration {
	n := len(done)
	if n < parallelism || parallelism <= 0 {
		return end
	}
	s := append([]time.Duration(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// After the (n-parallelism+1)-th completion, parallelism-1 points remain.
	return end - s[n-parallelism]
}
