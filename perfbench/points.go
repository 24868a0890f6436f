package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"

	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/mem"
	"streamfloat/internal/system"
	"streamfloat/internal/workload"
)

// point is one simulation the benchmark asks for.
type point struct {
	Cfg   config.Config
	Bench string
	Scale float64
	Key   string // system.CacheKey of the point
	Label string // system/core/benchmark
}

func newPoint(sys string, core config.CoreKind, mesh int, bench string, scale float64) (point, error) {
	cfg, err := config.ForSystem(sys, core)
	if err != nil {
		return point{}, err
	}
	if mesh > 0 {
		cfg.MeshWidth, cfg.MeshHeight = mesh, mesh
	}
	return point{
		Cfg: cfg, Bench: bench, Scale: scale,
		Key:   system.CacheKey(cfg, bench, scale),
		Label: fmt.Sprintf("%s/%s/%s", sys, core, bench),
	}, nil
}

var coreKinds = []config.CoreKind{config.IO4, config.OOO4, config.OOO8}

// Fig 13's grid, in the order experiments.Fig13 builds it.
var fig13Systems = []string{"Base", "Stride", "Bingo", "SS", "SF"}

const (
	fig13Scale = 0.1
	serveScale = 0.02
	serveMesh  = 2
)

// fig13Benches is the fig13 workload's suite: every second benchmark, so
// that one run fits three whole sweeps.
func fig13Benches() []string {
	var out []string
	for i, b := range workload.Names() {
		if i%2 == 0 {
			out = append(out, b)
		}
	}
	return out
}

// fig13Points lists the 90 points of Fig 13 over fig13Benches on the
// default 8x8 mesh.
func fig13Points() ([]point, error) {
	var pts []point
	for _, core := range coreKinds {
		for _, sys := range fig13Systems {
			for _, b := range fig13Benches() {
				p, err := newPoint(sys, core, 0, b, fig13Scale)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p)
			}
		}
	}
	return pts, nil
}

// servePoints lists every system x core x benchmark on a 2x2 mesh in an
// order drawn from seed. The program under test sees only this list.
func servePoints(seed uint64) ([]point, error) {
	var pts []point
	for _, sys := range config.SystemNames() {
		for _, core := range coreKinds {
			for _, b := range workload.Names() {
				p, err := newPoint(sys, core, serveMesh, b, serveScale)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p)
			}
		}
	}
	shuffle(pts, seed)
	return pts, nil
}

func shuffle[T any](s []T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// expectedIters maps each benchmark to the iteration count every simulation
// of it must retire: the sum of its prepared programs' TotalIters. It depends
// only on the benchmark, tile count and scale, which are the same for every
// point of one workload, and never on timing.
func expectedIters(pts []point) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, p := range pts {
		if _, ok := out[p.Bench]; ok {
			continue
		}
		k, err := workload.New(p.Bench)
		if err != nil {
			return nil, err
		}
		var n int64
		for _, pr := range k.Prepare(mem.NewBacking(), p.Cfg.Tiles(), p.Scale) {
			n += pr.TotalIters()
		}
		out[p.Bench] = uint64(n)
	}
	return out, nil
}

// checkResult verifies a simulated or served result for p: it must be the
// result of p's canonical key, and it must have retired exactly the
// iterations p's programs contain.
func checkResult(p point, res system.Results, iters map[string]uint64) error {
	if got := system.CacheKey(res.Config, res.Benchmark, p.Scale); got != p.Key {
		return fmt.Errorf("%s: result key %.12s, want %.12s", p.Label, got, p.Key)
	}
	if want := iters[p.Bench]; res.Stats.Iterations != want {
		return fmt.Errorf("%s: %d iterations, want %d", p.Label, res.Stats.Iterations, want)
	}
	return nil
}

// checkServed verifies a served result against the one computed in set-up.
func checkServed(p point, res, want system.Results) error {
	if got := system.CacheKey(res.Config, res.Benchmark, p.Scale); got != p.Key {
		return fmt.Errorf("%s: served key %.12s, want %.12s", p.Label, got, p.Key)
	}
	if !reflect.DeepEqual(res, want) {
		return fmt.Errorf("%s: served result differs from the set-up result", p.Label)
	}
	return nil
}

// simulate runs one point through the layers' public entry points —
// workload Prepare, system BuildPrepared, Machine.RunContext — recording a
// span around each under parent. The run's fired events are the larger of
// the fault.Heartbeat count on ctx (installing one when the caller has
// none), which covers every shard of a partitioned machine but misses the
// events fired after RunContext's last stop poll, and m.Eng.Fired(), which
// is exact on an unpartitioned machine.
func simulate(ctx context.Context, rec *recorder, parent int, p point) (system.Results, error) {
	k, err := workload.New(p.Bench)
	if err != nil {
		return system.Results{}, err
	}
	id := rec.begin("workload.prepare", parent, p.Label)
	bk := mem.NewBacking()
	progs := k.Prepare(bk, p.Cfg.Tiles(), p.Scale)
	rec.end(id, nil)

	id = rec.begin("system.build", parent, p.Label)
	m, err := system.BuildPrepared(p.Cfg, p.Bench, bk, progs)
	rec.end(id, nil)
	if err != nil {
		return system.Results{}, err
	}

	hb := fault.HeartbeatFrom(ctx)
	if hb == nil {
		hb = &fault.Heartbeat{}
		ctx = fault.WithHeartbeat(ctx, hb)
	}
	id = rec.begin("system.run", parent, p.Label)
	res, err := m.RunContext(ctx, 0)
	rec.end(id, func(s *span) {
		_, beat, _ := hb.Load()
		s.Events = max(beat, m.Eng.Fired())
	})
	return res, err
}
