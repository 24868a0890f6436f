package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"streamfloat/internal/experiments"
	"streamfloat/internal/system"
)

// fig13Inputs is the fig13 workload's set-up: the sweep's points and the
// iteration count each benchmark must retire.
type fig13Inputs struct {
	pts   []point
	byKey map[string]point
	iters map[string]uint64
}

func fig13Setup() (fig13Inputs, error) {
	pts, err := fig13Points()
	if err != nil {
		return fig13Inputs{}, err
	}
	iters, err := expectedIters(pts)
	if err != nil {
		return fig13Inputs{}, err
	}
	byKey := make(map[string]point, len(pts))
	for _, p := range pts {
		byKey[p.Key] = p
	}
	return fig13Inputs{pts: pts, byKey: byKey, iters: iters}, nil
}

// runFig13 regenerates Fig 13 through experiments.Fig13 with sweep
// parallelism = one worker per CPU (a closed loop: a worker starts its next
// point when its last one ends), as many whole sweeps as fit the run time,
// at least minSweeps, and reports the median sweep.
func runFig13(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	setupWall, in, err := measureSetup(setupRepeats, fig13Setup, func(fig13Inputs) {})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return rep, fig13Traced(ctx, cfg, in, rep)
	}
	var sweeps []float64
	var walls []time.Duration
	start := time.Now()
	for len(sweeps) < minSweeps || time.Since(start) < cfg.seconds {
		sw, err := fig13Sweep(ctx, cfg, in, nil, rep)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, sw.wall.Seconds())
		walls = append(walls, sw.pointWalls...)
	}
	var total float64
	for _, s := range sweeps {
		total += s
	}
	lat := ms(walls)
	rep.set("setup_s", setupWall.Seconds())
	rep.set("sweep_s", median(sweeps))
	rep.note("points_per_s %g 1/s", float64(len(walls))/total)
	rep.set("point_p50_ms", percentile(lat, 0.5))
	rep.set("point_p90_ms", percentile(lat, 0.9))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)
	rep.note("sweeps %d points %d tail p%g walls %.3g s", len(sweeps), len(walls), 100*tailQuantile(len(walls)), sweeps)
	return rep, nil
}

// minSweeps is the fewest sweeps a fig13 run measures, so that sweep_s is a
// median of several.
const minSweeps = 3

// sweepResult is what one Fig 13 sweep reports back.
type sweepResult struct {
	wall       time.Duration
	pointWalls []time.Duration
	doneAt     []time.Duration // each point's completion, from sweep start
	results    []system.Results
}

// sweepLog follows a sweep through Options.Progress. With a recorder it
// also opens an experiments.point span per point, under the sweep span.
type sweepLog struct {
	t0     time.Time
	rec    *recorder
	parent int
	labels map[string]point

	mu    sync.Mutex
	open  map[string]int
	walls []time.Duration
	done  []time.Duration
}

func (l *sweepLog) progress(ev experiments.ProgressEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ev.Done {
		l.open[ev.Key] = l.rec.begin("experiments.point", l.parent, l.labels[ev.Key].Label)
		return
	}
	l.rec.end(l.open[ev.Key], nil)
	if ev.Err == nil {
		l.walls = append(l.walls, ev.PointWall)
		l.done = append(l.done, time.Since(l.t0))
	}
}

func (l *sweepLog) spanOf(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.open[key]
}

// sweepCache is the sweep's experiments.ResultCache. It memoizes nothing:
// every point is computed, so the sweep does the work of an uncached run.
// It exists to hand each point's Results to the benchmark's checks. With a
// recorder it computes the point itself through simulate, so the traced
// sweep gets a span per layer call.
type sweepCache struct {
	log *sweepLog
	in  fig13Inputs
	rec *recorder

	mu      sync.Mutex
	results map[string]system.Results
}

func (c *sweepCache) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	var res system.Results
	var err error
	if c.rec == nil {
		res, err = compute()
	} else if p, ok := c.in.byKey[key]; !ok {
		err = fmt.Errorf("sweep asked for unknown point %.12s", key)
	} else {
		res, err = simulate(ctx, c.rec, c.log.spanOf(key), p)
	}
	if err == nil {
		c.mu.Lock()
		c.results[key] = res
		c.mu.Unlock()
	}
	return res, err
}

// fig13Sweep runs one Fig 13 sweep and checks every point's result.
func fig13Sweep(ctx context.Context, cfg runConfig, in fig13Inputs, rec *recorder, rep *report) (sweepResult, error) {
	root := rec.begin("experiments.sweep", 0, "fig13")
	log := &sweepLog{t0: time.Now(), rec: rec, parent: root, labels: in.byKey, open: map[string]int{}}
	cache := &sweepCache{log: log, in: in, rec: rec, results: map[string]system.Results{}}
	tbl, err := experiments.Fig13(experiments.Options{
		Scale:       fig13Scale,
		Benchmarks:  fig13Benches(),
		Parallelism: cfg.callers,
		Context:     ctx,
		Cache:       cache,
		Progress:    log.progress,
	})
	wall := time.Since(log.t0)
	rec.end(root, nil)
	if err != nil {
		rep.logErr(fmt.Errorf("fig13 sweep: %w", err))
	} else if err := checkTable(tbl); err != nil {
		return sweepResult{}, err
	}
	sw := sweepResult{wall: wall, pointWalls: log.walls, doneAt: log.done}
	for _, p := range in.pts {
		res, ok := cache.results[p.Key]
		if !ok {
			rep.add(fmt.Errorf("%s: no result", p.Label))
			continue
		}
		rep.add(checkResult(p, res, in.iters))
		sw.results = append(sw.results, res)
	}
	return sw, nil
}

// checkTable rejects a figure whose rows or headline metrics are missing or
// not finite and positive.
func checkTable(t *experiments.Table) error {
	if want := len(coreKinds) * (len(fig13Systems) - 1); len(t.Rows) != want {
		return fmt.Errorf("fig13 table has %d rows, want %d", len(t.Rows), want)
	}
	for name, v := range t.Metrics {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("fig13 metric %s = %v", name, v)
		}
	}
	return nil
}

// probeSize is how many fig13 points the traced run also runs one at a
// time, traced and untraced in turn: allocation counts need a call to run
// alone, and the pairs give the tracing overhead.
const probeSize = 12

// fig13Traced runs the traced sweep (same parallelism, a span around every
// Fig13 point and every Prepare, BuildPrepared and RunContext call), then a
// sequential probe of probeSize points.
func fig13Traced(ctx context.Context, cfg runConfig, in fig13Inputs, rep *report) error {
	rec := newRecorder(false)
	before := readRuntime()
	sw, err := fig13Sweep(ctx, cfg, in, rec, rep)
	if err != nil {
		return err
	}
	rep.setRuntime(before, readRuntime())
	sweepSpans := rec.snapshot()

	rep.set("experiments.busy_frac", busyFrac(sw.pointWalls, sw.wall, cfg.callers))
	rep.set("experiments.tail_s", tailTime(sw.doneAt, sw.wall, cfg.callers).Seconds())
	var maxWall time.Duration
	for _, w := range sw.pointWalls {
		maxWall = max(maxWall, w)
	}
	rep.set("experiments.point_max_ms", float64(maxWall)/1e6)
	rep.setSimLayers(sweepSpans, named(sweepSpans, "experiments.point"), sw.results)

	// The probe: one point per benchmark, spread over every system and core
	// kind. in.pts is ordered core, then system, then benchmark.
	rec.allocs = true
	var untraced, traced time.Duration
	nb := len(in.pts) / (len(coreKinds) * len(fig13Systems))
	for i := range probeSize {
		p := in.pts[((i%len(coreKinds))*len(fig13Systems)+i%len(fig13Systems))*nb+i%nb]
		for j := range 2 {
			tracedTurn := (i+j)%2 == 1
			var r *recorder
			if tracedTurn {
				r = rec
			}
			t0 := time.Now()
			id := r.begin("probe.point", 0, p.Label)
			res, err := simulate(ctx, r, id, p)
			r.end(id, nil)
			d := time.Since(t0)
			if err == nil {
				err = checkResult(p, res, in.iters)
			}
			rep.add(err)
			if tracedTurn {
				traced += d
			} else {
				untraced += d
			}
		}
	}
	all := rec.snapshot()
	rep.setAllocs(all[len(sweepSpans):])
	rep.set("trace.overhead_frac", float64(traced)/float64(untraced)-1)
	rep.set("trace.spans", float64(len(all)))
	rep.spans = all
	return nil
}
