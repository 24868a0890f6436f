package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamfloat/internal/cluster"
	"streamfloat/internal/config"
	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

// runner is serve.Config.Runner's signature; nil keeps sfserve's own.
type runner = func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error)

// backend is one sfserve handler behind a loopback listener in this
// process, with the cluster client that reaches it — the path sfexp
// -backends takes to a remote sfserve.
type backend struct {
	store  *serve.Store
	srv    *serve.Server
	hs     *http.Server
	client *cluster.Client
	served chan struct{}
}

// startBackend serves store. With a recorder, the handler records a
// serve.http span per request and the client carries its span across the
// hop; run, when non-nil, replaces sfserve's simulation runner.
func startBackend(store *serve.Store, rec *recorder, run runner) (*backend, error) {
	srv := serve.NewServer(serve.Config{Store: store, Runner: run})
	var h http.Handler = srv
	var transport http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if rec != nil {
		h = spanHandler{next: srv, rec: rec}
		transport = spanTransport{next: transport}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &backend{store: store, srv: srv, hs: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(b.served)
		b.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	b.client, err = cluster.New(cluster.Config{
		Backends:   []string{ln.Addr().String()},
		HTTPClient: &http.Client{Transport: transport},
		Origin:     "perfbench",
	})
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// close stops the listener and waits for the serving goroutine to exit.
func (b *backend) close() {
	if b.client != nil {
		b.client.Close()
	}
	b.hs.Close()
	<-b.served
}

// rejected reads the backend's backpressure rejections from /metrics.
func (b *backend) rejected() (float64, error) {
	w := httptest.NewRecorder()
	b.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "sfserve_jobs_rejected "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, errors.New("no sfserve_jobs_rejected in /metrics")
}

// errFallback is what a point gets if the client gives up on the backend
// and tries to compute locally: DoPoint returns it, so every fallback the
// client counts in Stats().Fallbacks is also a failed request here.
var errFallback = errors.New("local fallback: the backend did not answer")

func noFallback() (system.Results, error) { return system.Results{}, errFallback }

// callPoint sends p to the backend through cluster.Client.DoPoint, inside a
// cluster.dopoint span when rec is non-nil.
func callPoint(ctx context.Context, b *backend, rec *recorder, p point) (system.Results, time.Duration, error) {
	id := rec.begin("cluster.dopoint", 0, p.Label)
	if rec != nil {
		ctx = withPoint(withSpan(ctx, id), p.Label)
	}
	t0 := time.Now()
	res, err := b.client.DoPoint(ctx, p.Key, p.Cfg, p.Bench, p.Scale, noFallback)
	d := time.Since(t0)
	rec.end(id, nil)
	return res, d, err
}

// closedLoop makes n calls from callers goroutines; each caller issues its
// next call only when its previous one has returned.
func closedLoop(callers, n int, call func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
}

// pass sends every point once and checks each answer with check. It
// returns the pass's wall time, every round trip, and the results in point
// order.
func pass(ctx context.Context, b *backend, rec *recorder, callers int, pts []point, t *tally,
	check func(point, system.Results) error) (time.Duration, []time.Duration, []system.Results) {
	lats := make([]time.Duration, len(pts))
	results := make([]system.Results, len(pts))
	t0 := time.Now()
	closedLoop(callers, len(pts), func(i int) {
		res, d, err := callPoint(ctx, b, rec, pts[i])
		if err == nil {
			err = check(pts[i], res)
		}
		t.add(err)
		lats[i], results[i] = d, res
	})
	return time.Since(t0), lats, results
}

// pointSet is the serve workloads' input: the seeded point list and the
// iterations each benchmark must retire.
type pointSet struct {
	pts   []point
	iters map[string]uint64
}

func serveInputs(seed uint64) (pointSet, error) {
	pts, err := servePoints(seed)
	if err != nil {
		return pointSet{}, err
	}
	iters, err := expectedIters(pts)
	return pointSet{pts: pts, iters: iters}, err
}

// freshBackend starts a backend over a new, empty memory+disk store.
func freshBackend(dir string, rec *recorder, run runner) (*backend, error) {
	d, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(0, d)
	if err != nil {
		return nil, err
	}
	return startBackend(store, rec, run)
}

// runServeCold sends the seeded never-cached points to one in-process
// sfserve backend over loopback through cluster.Client.DoPoint, from a
// closed loop of one caller per CPU. Every pass gets a fresh store, so
// every request simulates and writes its result to memory and disk.
func runServeCold(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	type coldSetup struct {
		in pointSet
		b  *backend
	}
	setupWall, s, err := measureSetup(setupRepeats, func() (coldSetup, error) {
		in, err := serveInputs(cfg.seed)
		if err != nil {
			return coldSetup{}, err
		}
		b, err := freshBackend(cfg.tmp, nil, nil)
		return coldSetup{in, b}, err
	}, func(s coldSetup) { s.b.close() })
	if err != nil {
		return nil, err
	}
	in := s.in
	check := func(p point, res system.Results) error { return checkResult(p, res, in.iters) }
	if cfg.traced {
		s.b.close()
		return rep, serveColdTraced(ctx, cfg, in, check, rep)
	}

	var walls []float64
	var lats []time.Duration
	b := s.b
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < cfg.seconds {
		if b == nil {
			if b, err = freshBackend(cfg.tmp, nil, nil); err != nil {
				return nil, err
			}
		}
		wall, l, _ := pass(ctx, b, nil, cfg.callers, in.pts, &rep.tally, check)
		b.close()
		b = nil
		walls = append(walls, wall.Seconds())
		lats = append(lats, l...)
	}
	rep.setServeEndToEnd(setupWall, walls, ms(lats))
	rep.note("passes %d points %d walls %.3g s", len(walls), len(lats), walls)
	return rep, nil
}

// setServeEndToEnd reports the end-to-end metrics of a serve workload.
func (r *report) setServeEndToEnd(setup time.Duration, passWalls, lats []float64) {
	var total float64
	for _, w := range passWalls {
		total += w
	}
	r.set("setup_s", setup.Seconds())
	r.set("sweep_s", median(passWalls))
	r.note("points_per_s %g 1/s", float64(len(lats))/total)
	r.set("point_p50_ms", percentile(lats, 0.5))
	r.set("point_p90_ms", percentile(lats, 0.9))
	if rss, err := peakRSSMB(); err == nil {
		r.set("peak_rss_mb", rss)
	}
}

// serveColdTraced runs one untraced and one traced pass, one request at a
// time so each call's allocations are its own, then times Store.Do writing
// every result to a fresh store.
func serveColdTraced(ctx context.Context, cfg runConfig, in pointSet, check func(point, system.Results) error, rep *report) error {
	b, err := freshBackend(cfg.tmp, nil, nil)
	if err != nil {
		return err
	}
	untraced, _, _ := pass(ctx, b, nil, 1, in.pts, &rep.tally, check)
	b.close()

	rec := newRecorder(true)
	tracedRun := func(ctx context.Context, c config.Config, bench string, scale float64) (system.Results, error) {
		p := point{Cfg: c, Bench: bench, Scale: scale, Label: pointFrom(ctx)}
		return simulate(ctx, rec, spanFrom(ctx), p)
	}
	dir, err := os.MkdirTemp(cfg.tmp, "traced-")
	if err != nil {
		return err
	}
	store, err := serve.NewStore(0, dir)
	if err != nil {
		return err
	}
	if b, err = startBackend(store, rec, tracedRun); err != nil {
		return err
	}
	before := readRuntime()
	traced, _, results := pass(ctx, b, rec, 1, in.pts, &rep.tally, check)
	rep.setRuntime(before, readRuntime())
	spans := rec.snapshot()
	err = rep.setServeLayers(b, spans)
	b.close()
	if err != nil {
		return err
	}
	rep.setSimLayers(spans, named(spans, "cluster.dopoint"), results)
	rep.setAllocs(spans)
	if err := rep.setHitLayers(ctx, store, dir, in.pts, results); err != nil {
		return err
	}

	putStore, err := serve.NewStore(0, filepath.Join(cfg.tmp, "put"))
	if err != nil {
		return err
	}
	puts := make([]float64, len(in.pts))
	for i, p := range in.pts {
		res := results[i]
		t0 := time.Now()
		_, err := putStore.Do(ctx, p.Key, func() (system.Results, error) { return res, nil })
		puts[i] = float64(time.Since(t0)) / 1e3
		rep.add(err)
	}
	rep.set("serve.store_put_us", median(puts))
	rep.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	rep.set("trace.spans", float64(len(spans)))
	rep.spans = spans
	return nil
}

// setServeLayers reports the serve and cluster metrics of a traced pass
// against backend b, whose store was empty before the pass.
func (r *report) setServeLayers(b *backend, spans []span) error {
	st := b.store.Stats()
	cs := b.client.Stats()
	rejected, err := b.rejected()
	if err != nil {
		return err
	}
	r.set("serve.store_hits", float64(st.Hits))
	r.set("serve.store_disk_hits", float64(st.DiskHits))
	r.set("serve.store_misses", float64(st.Misses))
	r.set("serve.store_dedups", float64(st.Dedups))
	r.set("serve.store_disk_errs", float64(st.DiskErrs))
	r.set("serve.rejected", rejected)
	r.set("cluster.retries", float64(cs.Retries))
	r.set("cluster.fallbacks", float64(cs.Fallbacks))
	if handled := named(spans, "serve.http"); len(handled) > 0 {
		r.set("serve.response_bytes", sumOf(handled, func(s span) float64 { return float64(s.Size) })/float64(len(handled)))
	}
	// A client call's self time is the hop: DoPoint minus the handler.
	kids := children(spans)
	r.set("cluster.hop_us", median(mapOf(named(spans, "cluster.dopoint"), func(s span) float64 {
		return float64(selfTime(s.interval(), kids[s.ID])) / 1e3
	})))
	return nil
}

// diskLRU is the memory size of the store that times disk reads: far below
// the key count, so reading the keys in order misses memory every time.
const diskLRU = 16

// setHitLayers times the layers of a cached answer key by key, with every
// key's result in store's memory and in dir: DoPoint through a backend over
// store, Store.Get from memory, Store.Get from disk through a fresh 16-entry
// store over dir, and ServeHTTP answering from memory. Every answer must be
// DeepEqual to the computed result in refs, which is in point order.
func (r *report) setHitLayers(ctx context.Context, store *serve.Store, dir string, pts []point, refs []system.Results) error {
	want := make(map[string]system.Results, len(pts))
	for i, p := range pts {
		want[p.Key] = refs[i]
	}
	check := func(p point, res system.Results) error { return checkServed(p, res, want[p.Key]) }
	b, err := startBackend(store, nil, nil)
	if err != nil {
		return err
	}
	_, calls, _ := pass(ctx, b, nil, 1, pts, &r.tally, check)
	b.close()
	get := func(s *serve.Store) []float64 {
		us := make([]float64, len(pts))
		for i, p := range pts {
			t0 := time.Now()
			res, ok := s.Get(p.Key)
			us[i] = float64(time.Since(t0)) / 1e3
			if !ok {
				r.add(fmt.Errorf("%s: not in the store", p.Label))
			} else {
				r.add(check(p, res))
			}
		}
		return us
	}
	getMem := get(store)
	diskStore, err := serve.NewStore(diskLRU, dir)
	if err != nil {
		return err
	}
	getDisk := get(diskStore)
	handler := make([]float64, len(pts))
	for i, p := range pts {
		d, err := handlerHit(b.srv, p)
		handler[i] = float64(d) / 1e3
		r.add(err)
	}
	r.set("cluster.dopoint_hit_us", median(ms(calls))*1e3)
	r.set("serve.store_get_mem_us", median(getMem))
	r.set("serve.store_get_disk_us", median(getDisk))
	r.set("serve.handler_hit_us", median(handler))
	return nil
}

// handlerHit times srv.ServeHTTP answering POST /run for p from memory,
// on a recorder with no network, and checks the answer's key.
func handlerHit(srv *serve.Server, p point) (time.Duration, error) {
	body, err := json.Marshal(serve.JobRequest{Config: &p.Cfg, Benchmark: p.Bench, Scale: p.Scale})
	if err != nil {
		return 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(w, req)
	d := time.Since(t0)
	var jr serve.JobResponse
	if w.Code != http.StatusOK {
		return d, fmt.Errorf("%s: handler status %d", p.Label, w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil {
		return d, fmt.Errorf("%s: %w", p.Label, err)
	}
	if jr.Key != p.Key || !jr.Cached {
		return d, fmt.Errorf("%s: handler answered key %.12s cached=%v", p.Label, jr.Key, jr.Cached)
	}
	return d, nil
}
