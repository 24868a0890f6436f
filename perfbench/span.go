package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Point  string `json:"point,omitempty"` // the simulation point or key served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Mallocs and Bytes are the process-wide allocation deltas over the
	// span; they are recorded only when the recorder runs calls one at a
	// time, because concurrent calls would share them.
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
	// Events is the simulation's fired-event count (system.run spans) and
	// Size the response body size (serve.http spans).
	Events uint64 `json:"events,omitempty"`
	Size   int64  `json:"size,omitempty"`
}

func (s span) dur() int64           { return s.End - s.Start }
func (s span) interval() interval   { return interval{s.Start, s.End} }
func (s span) seconds() float64     { return float64(s.dur()) / 1e9 }
func spanSeconds(ss []span) float64 { return sumOf(ss, span.seconds) }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so traced and untraced runs share one code path.
type recorder struct {
	t0     time.Time
	allocs bool

	mu    sync.Mutex
	spans []span
	// open holds the allocation counters read when a span began.
	open map[int][2]uint64
}

func newRecorder(allocs bool) *recorder {
	return &recorder{t0: time.Now(), allocs: allocs, open: map[int][2]uint64{}}
}

// begin opens a span and returns its id (0 when r is nil).
func (r *recorder) begin(name string, parent int, point string) int {
	if r == nil {
		return 0
	}
	var counts [2]uint64
	if r.allocs {
		counts = memCounts()
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Point: point, Start: start})
	if r.allocs {
		r.open[id] = counts
	}
	return id
}

// end closes span id; edit, when non-nil, fills in its extra fields.
func (r *recorder) end(id int, edit func(*span)) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	var counts [2]uint64
	if r.allocs {
		counts = memCounts()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	if r.allocs {
		before := r.open[id]
		delete(r.open, id)
		s.Mallocs, s.Bytes = counts[0]-before[0], counts[1]-before[1]
	}
	if edit != nil {
		edit(s)
	}
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// memCounts reads the cumulative malloc count and allocated bytes.
func memCounts() [2]uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return [2]uint64{ms.Mallocs, ms.TotalAlloc}
}

// named returns the spans called name.
func named(ss []span, name string) []span {
	var out []span
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children indexes spans by parent id.
func children(ss []span) map[int][]interval {
	out := map[int][]interval{}
	for _, s := range ss {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s.interval())
		}
	}
	return out
}

func sumOf(ss []span, f func(span) float64) float64 {
	var t float64
	for _, s := range ss {
		t += f(s)
	}
	return t
}

func mapOf(ss []span, f func(span) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// writeSpans writes the spans as one JSON document next to the run's other
// outputs.
func writeSpans(path string, meta any, ss []span) error {
	data, err := json.Marshal(struct {
		Meta  any    `json:"meta"`
		Spans []span `json:"spans"`
	}{meta, ss})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the current span id through a context.
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// Headers that carry the caller's span across the loopback hop, so the
// backend's spans nest under the client call that caused them.
const (
	spanHeader  = "X-Perfbench-Span"
	pointHeader = "X-Perfbench-Point"
)

type pointKey struct{}

func withPoint(ctx context.Context, point string) context.Context {
	return context.WithValue(ctx, pointKey{}, point)
}

func pointFrom(ctx context.Context) string {
	p, _ := ctx.Value(pointKey{}).(string)
	return p
}

// spanTransport stamps the request context's span and point on outgoing
// requests.
type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := spanFrom(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
		req.Header.Set(pointHeader, pointFrom(req.Context()))
	}
	return t.next.RoundTrip(req)
}

// spanHandler records a serve.http span around the server's ServeHTTP,
// parented to the client span named in the request headers, and hands the
// span down through the request context.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	point := r.Header.Get(pointHeader)
	id := h.rec.begin("serve.http", parent, point)
	cw := &countingWriter{ResponseWriter: w}
	ctx := withPoint(withSpan(r.Context(), id), point)
	h.next.ServeHTTP(cw, r.WithContext(ctx))
	h.rec.end(id, func(s *span) { s.Size = cw.n })
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
