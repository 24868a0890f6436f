// Package event provides the discrete-event simulation kernel that drives
// every timed component in the simulator: cores, caches, NoC routers, DRAM
// controllers and stream engines all schedule callbacks on a shared Engine.
//
// The engine is single-threaded and deterministic: events at the same cycle
// fire in the order they were scheduled (FIFO tie-breaking by sequence
// number), so repeated runs of the same configuration produce identical
// statistics.
//
// # Queue structure
//
// The scheduler is a two-level calendar queue. Near-future events — almost
// everything a cycle-level simulation produces: L1/L2 lookup latencies,
// per-hop NoC delays, stream-engine advances — land in a power-of-two ring
// of per-cycle buckets covering the next ringSize cycles. Far-future events
// (deep DRAM bandwidth queues, long horizons) go to a slice-based binary
// heap ordered by (when, seq) with no interface boxing. Whenever simulated
// time advances, overflow events whose cycle has entered the ring window are
// promoted into their bucket — always before any handler at the new time can
// schedule into those cycles, which keeps bucket append order equal to
// global seq order and preserves exact FIFO semantics.
package event

import (
	"streamfloat/internal/sanitize"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Func is a callback executed when its event fires. The engine passes the
// current cycle so handlers do not need to capture the engine.
type Func func(now Cycle)

// Ref is the fixed payload of a closure-free event. Obj carries a
// pointer-shaped value (a component pointer, a pooled operation struct, or a
// func value) — storing such values in an interface performs no allocation.
// Do not store plain integers or structs in Obj; they would box. A and B
// carry small scalar operands.
type Ref struct {
	Obj  any
	A, B int64
}

// CallFunc is the handler form of a closure-free event: a package-level (or
// otherwise pre-existing) function receiving the firing cycle and the fixed
// payload it was scheduled with. Scheduling a CallFunc allocates nothing.
type CallFunc func(now Cycle, ref Ref)

// runFunc adapts the closure form onto the fixed-payload form; Schedule/At
// store the Func (pointer-shaped, no boxing) in Ref.Obj.
func runFunc(now Cycle, ref Ref) { ref.Obj.(Func)(now) }

// item is one scheduled event. No interface boxing: items live directly in
// bucket slices and the overflow heap.
type item struct {
	when Cycle
	seq  uint64
	call CallFunc
	ref  Ref
}

// ringBits sizes the near-future window: 2^ringBits cycles. The window must
// comfortably exceed every common component latency (cache lookups, NoC
// hops, uncongested DRAM) so that only pathological backlogs overflow.
const (
	ringBits = 12
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// bucket holds the events of one cycle in schedule order. head indexes the
// next unfired event; the slice is reset (retaining capacity) once drained,
// so steady-state operation allocates nothing.
type bucket struct {
	items []item
	head  int
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	size  int // pending events, ring + overflow

	ringCnt  int      // pending events in the ring
	ring     []bucket // ringSize per-cycle buckets, indexed by when & ringMask
	overflow []item   // binary min-heap by (when, seq) for when-now >= ringSize

	chk *sanitize.Checker
}

// SetChecker attaches sanitizer probes: every popped event is checked for
// time monotonicity (the queue must never hand back an event earlier than
// the cycle the engine has already advanced to). nil detaches.
func (e *Engine) SetChecker(chk *sanitize.Checker) { e.chk = chk }

// New returns an empty engine positioned at cycle 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed so far; useful for
// instrumentation and runaway detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.size }

// Schedule arranges fn to run delay cycles from now. A zero delay runs fn
// later in the current cycle, after all previously scheduled events for this
// cycle.
func (e *Engine) Schedule(delay Cycle, fn Func) {
	e.AtCall(e.now+delay, runFunc, Ref{Obj: fn})
}

// At arranges fn to run at the given absolute cycle. Scheduling in the past
// (when < Now) fires the event at the current cycle instead; this keeps
// latency arithmetic in callers simple and can never move time backwards.
func (e *Engine) At(when Cycle, fn Func) {
	e.AtCall(when, runFunc, Ref{Obj: fn})
}

// ScheduleCall arranges fn(now, ref) to run delay cycles from now. This is
// the closure-free form: fn should be a package-level function (or a func
// value that already exists) and ref its fixed payload, so hot paths
// schedule without allocating.
func (e *Engine) ScheduleCall(delay Cycle, fn CallFunc, ref Ref) {
	e.AtCall(e.now+delay, fn, ref)
}

// AtCall is the absolute-cycle form of ScheduleCall, with the same
// past-clamping as At.
func (e *Engine) AtCall(when Cycle, fn CallFunc, ref Ref) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	it := item{when: when, seq: e.seq, call: fn, ref: ref}
	e.size++
	if when-e.now < ringSize {
		if e.ring == nil {
			e.ring = make([]bucket, ringSize)
		}
		b := &e.ring[when&ringMask]
		b.items = append(b.items, it)
		e.ringCnt++
		return
	}
	e.overflowPush(it)
}

// nextWhen reports the cycle of the earliest pending event without advancing
// time. All ring events precede all overflow events (the promotion invariant
// keeps overflow cycles at least ringSize beyond now), so the ring is
// scanned first.
func (e *Engine) nextWhen() (Cycle, bool) {
	if e.size == 0 {
		return 0, false
	}
	if e.ringCnt > 0 {
		for t := e.now; t-e.now < ringSize; t++ {
			b := &e.ring[t&ringMask]
			if b.head < len(b.items) {
				return t, true
			}
		}
	}
	return e.overflow[0].when, true
}

// advanceTo moves simulated time forward to t and promotes every overflow
// event whose cycle has entered the ring window. Promotion happens at every
// time advance, before any handler at t runs: a handler scheduling into a
// newly opened cycle therefore always appends after older (lower-seq)
// promoted events, preserving global FIFO order. Time never moves backwards.
func (e *Engine) advanceTo(t Cycle) {
	if t > e.now {
		e.now = t
	}
	for len(e.overflow) > 0 && e.overflow[0].when-e.now < ringSize {
		if e.ring == nil {
			e.ring = make([]bucket, ringSize)
		}
		it := e.overflowPop()
		b := &e.ring[it.when&ringMask]
		b.items = append(b.items, it)
		e.ringCnt++
	}
}

// fire advances to t and executes the earliest event there.
func (e *Engine) fire(t Cycle) {
	prev := e.now
	e.advanceTo(t)
	b := &e.ring[t&ringMask]
	it := b.items[b.head]
	b.items[b.head] = item{} // release payload references
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	e.ringCnt--
	e.size--
	if e.chk != nil && it.when < prev {
		e.chk.Failf(0, "event: time moved backwards: popped event for cycle %d (seq %d) at now=%d",
			it.when, it.seq, prev)
	}
	e.fired++
	it.call(e.now, it.ref)
}

// Step fires the single earliest event and returns true, or returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	t, ok := e.nextWhen()
	if !ok {
		return false
	}
	e.fire(t)
	return true
}

// Run executes events until the queue drains or until an event horizon of
// maxCycles is crossed (0 means no horizon). It returns the final cycle.
func (e *Engine) Run(maxCycles Cycle) Cycle {
	for e.size > 0 {
		t, _ := e.nextWhen()
		if maxCycles != 0 && t > maxCycles {
			e.advanceTo(maxCycles)
			break
		}
		e.fire(t)
	}
	return e.now
}

// RunUntil executes events while pred returns false, stopping as soon as it
// returns true or the queue drains. pred is evaluated after every event.
func (e *Engine) RunUntil(pred func() bool) Cycle {
	for !pred() && e.Step() {
	}
	return e.now
}

// DefaultStopCheckEvents is the RunStop polling interval used when every <= 0:
// frequent enough that a cancelled simulation halts within microseconds of
// wall-clock event processing, rare enough to stay invisible in profiles.
const DefaultStopCheckEvents = 1024

// RunStop executes events like Run, but additionally polls stop every `every`
// fired events (every <= 0 picks DefaultStopCheckEvents) and abandons the run
// as soon as it reports true. It returns the final cycle and whether the run
// was stopped early. A nil stop is exactly Run.
func (e *Engine) RunStop(maxCycles Cycle, every uint64, stop func() bool) (Cycle, bool) {
	if stop == nil {
		return e.Run(maxCycles), false
	}
	if every <= 0 {
		every = DefaultStopCheckEvents
	}
	if stop() {
		return e.now, true
	}
	next := e.fired + every
	for e.size > 0 {
		t, _ := e.nextWhen()
		if maxCycles != 0 && t > maxCycles {
			e.advanceTo(maxCycles)
			break
		}
		e.fire(t)
		if e.fired >= next {
			if stop() {
				return e.now, true
			}
			next = e.fired + every
		}
	}
	return e.now, false
}

// overflowPush inserts an item into the far-future heap.
func (e *Engine) overflowPush(it item) {
	h := append(e.overflow, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

// overflowPop removes and returns the heap minimum.
func (e *Engine) overflowPop() item {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item{} // release payload references
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && itemLess(&h[l], &h[s]) {
			s = l
		}
		if r < n && itemLess(&h[r], &h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	e.overflow = h
	return top
}

func itemLess(a, b *item) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
