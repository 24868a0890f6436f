package experiments

import (
	"fmt"
	"sort"
	"sync"

	"streamfloat/internal/config"
	"streamfloat/internal/sample"
)

// PointEstimate is one sampled simulation's estimate, attributed to the
// sweep point that produced it.
type PointEstimate struct {
	Bench  string `json:"bench"`
	System string `json:"system"`
	Core   string `json:"core"`
	// Variant distinguishes mutated points (Fig15's prefetcher variants,
	// Fig16's link sweeps, ...) that share bench/system/core.
	Variant string          `json:"variant,omitempty"`
	Cycles  sample.Estimate `json:"cycles"`
	Energy  sample.Estimate `json:"energy"`
	// Speedup is the work-reduction bound of the point's sampling plan:
	// full-run iterations over iterations simulated in detail.
	Speedup float64 `json:"speedup"`
}

// EstimateLog collects the per-point estimates of a sampled sweep. Safe for
// concurrent use; the zero value is ready. A nil log discards records, so
// runAll never needs to branch on it.
type EstimateLog struct {
	mu  sync.Mutex
	pts []PointEstimate
}

func (l *EstimateLog) record(k runKey, r *sample.Result) {
	if l == nil || r == nil {
		return
	}
	var variant string
	if k.mutate != nil {
		variant = "mutated"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pts = append(l.pts, PointEstimate{
		Bench:   k.bench,
		System:  k.system,
		Core:    k.core.String(),
		Variant: variant,
		Cycles:  r.Cycles,
		Energy:  r.Energy,
		Speedup: r.Speedup(),
	})
}

// Points returns the recorded estimates sorted by (bench, system, core,
// variant) so the order is independent of sweep parallelism.
func (l *EstimateLog) Points() []PointEstimate {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	pts := append([]PointEstimate(nil), l.pts...)
	l.mu.Unlock()
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.System != b.System {
			return a.System < b.System
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		return a.Variant < b.Variant
	})
	return pts
}

// take snapshots the sorted points and resets the log, so one Options value
// reused across figures attributes each sweep's estimates to its own table.
func (l *EstimateLog) take() []PointEstimate {
	if l == nil {
		return nil
	}
	pts := l.Points()
	l.mu.Lock()
	l.pts = nil
	l.mu.Unlock()
	return pts
}

// SamplingSummary describes the sampled-simulation run behind one table.
type SamplingSummary struct {
	Intervals int   `json:"intervals"`
	Measure   int   `json:"measure"`
	Seed      int64 `json:"seed"`
	// Points holds the per-point estimates computed for this table, sorted
	// by (bench, system, core, variant). Cache-served points are absent.
	Points []PointEstimate `json:"points"`
	// MeanSpeedup is the arithmetic mean work reduction across Points.
	MeanSpeedup float64 `json:"mean_speedup"`
	// MaxRelCyclesCI / MaxRelEnergyCI are the worst relative 95% confidence
	// half-widths (half-width over mean) across Points.
	MaxRelCyclesCI float64 `json:"max_rel_cycles_ci"`
	MaxRelEnergyCI float64 `json:"max_rel_energy_ci"`
}

func newSamplingSummary(p config.SampleParams, pts []PointEstimate) *SamplingSummary {
	p = p.Resolved()
	s := &SamplingSummary{Intervals: p.Intervals, Measure: p.Measure, Seed: p.Seed, Points: pts}
	for _, pt := range pts {
		s.MeanSpeedup += pt.Speedup / float64(len(pts))
		s.MaxRelCyclesCI = max(s.MaxRelCyclesCI, pt.Cycles.RelHalfWidth())
		s.MaxRelEnergyCI = max(s.MaxRelEnergyCI, pt.Energy.RelHalfWidth())
	}
	return s
}

// note renders the one-line table footnote for a sampled sweep.
func (s *SamplingSummary) note() string {
	return fmt.Sprintf("sampled simulation (K=%d intervals, %d measured, seed %d): "+
		"%d fresh points, mean work reduction %.1fx, worst 95%% CI ±%.1f%% cycles / ±%.1f%% energy",
		s.Intervals, s.Measure, s.Seed, len(s.Points),
		s.MeanSpeedup, 100*s.MaxRelCyclesCI, 100*s.MaxRelEnergyCI)
}

// runFigure invokes one figure runner, provisioning an estimate log when
// the sweep samples and stitching the resulting summary into the table. All,
// ByName and the CSV writers all route through here so every rendered
// sampled table carries its confidence intervals. name tags the sweep's
// goroutines for pprof attribution.
func runFigure(name string, fn func(Options) (*Table, error), opts Options) (*Table, error) {
	opts.figure = name
	sampled := opts.Sample.Enabled()
	if sampled && opts.Estimates == nil {
		opts.Estimates = &EstimateLog{}
	}
	if opts.KeepGoing && opts.Failures == nil {
		opts.Failures = &FailureLog{}
	}
	t, err := fn(opts)
	if err != nil || t == nil {
		return t, err
	}
	if sampled {
		if pts := opts.Estimates.take(); len(pts) > 0 {
			t.Sampling = newSamplingSummary(opts.Sample, pts)
			t.Notes = append(t.Notes, t.Sampling.note())
		}
	}
	if opts.KeepGoing {
		if pts := opts.Failures.take(); len(pts) > 0 {
			t.Failures = pts
			for _, f := range pts {
				t.Notes = append(t.Notes, f.note())
			}
		}
	}
	return t, nil
}
