// Package noc models the on-chip interconnect: a 2D mesh with X-Y dimension-
// order routing, 5-stage routers, single-cycle links, bandwidth-limited link
// occupancy, flit serialization by link width, and hardware multicast trees
// (used by stream confluence). It accounts traffic as flits and flit-hops by
// message class — the metric Fig 15 reports.
package noc

import (
	"fmt"

	"streamfloat/internal/event"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/trace"
)

// HeaderBytes is the per-packet header (routing, type, ids). Every message
// pays it before payload serialization.
const HeaderBytes = 8

// Direction of a mesh link leaving a router.
type direction int

const (
	dirEast direction = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// Mesh is the on-chip network. All methods must be called from the event
// loop goroutine.
type Mesh struct {
	eng       *event.Engine
	st        *stats.Stats
	w, h      int
	linkBits  int
	routerLat event.Cycle
	linkLat   event.Cycle

	// linkFree[tile*numDirs+dir] is the first cycle at which the directed
	// link leaving tile in dir can accept a new head flit.
	linkFree []event.Cycle
	numLinks int

	// pathBuf is the scratch route reused by path(): the mesh is driven from
	// the single event-loop goroutine and every route is consumed before the
	// next one is computed.
	pathBuf []int

	// Multicast tree-link dedup, epoch-stamped so no per-call map is needed:
	// seenEpoch[l] == epoch marks link l as already reserved by this call.
	seenArrive []event.Cycle
	seenEpoch  []uint64
	epoch      uint64

	// tr, when non-nil, records send/hop/deliver events and per-link flit
	// counters for the heatmap. Purely observational.
	tr *trace.Tracer

	// Sanitizer state: flit-conservation books per message class. A nil
	// chk disables all probes.
	chk          *sanitize.Checker
	sanInjected  [stats.NumClasses]uint64 // flits placed on links
	sanDrained   [stats.NumClasses]uint64 // flits whose message fully delivered
	sanInFlight  uint64                   // deliveries scheduled but not yet invoked
	sanDelivered uint64
}

// SetChecker attaches sanitizer probes: every Send/Multicast is traced and
// double-entry flit books are kept so Audit can prove that every flit
// injected into the mesh was drained by a delivery (per message class) and
// that no delivery callback was lost. nil detaches.
func (m *Mesh) SetChecker(chk *sanitize.Checker) { m.chk = chk }

// SetTracer attaches the structured tracer to the mesh. nil detaches.
func (m *Mesh) SetTracer(tr *trace.Tracer) { m.tr = tr }

// New builds a w x h mesh with the given link width in bits and per-hop
// router/link latencies.
func New(eng *event.Engine, st *stats.Stats, w, h, linkBits, routerLat, linkLat int) *Mesh {
	if w <= 0 || h <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	m := &Mesh{
		eng:       eng,
		st:        st,
		w:         w,
		h:         h,
		linkBits:  linkBits,
		routerLat: event.Cycle(routerLat),
		linkLat:   event.Cycle(linkLat),
		linkFree:  make([]event.Cycle, w*h*int(numDirs)),
	}
	m.numLinks = 2 * ((w-1)*h + w*(h-1))
	return m
}

// NumLinks reports the number of unidirectional links, for utilization math.
func (m *Mesh) NumLinks() int { return m.numLinks }

// Tiles reports the number of routers.
func (m *Mesh) Tiles() int { return m.w * m.h }

// Coord converts a tile index to (x, y).
func (m *Mesh) Coord(tile int) (x, y int) { return tile % m.w, tile / m.w }

// TileAt converts (x, y) to a tile index.
func (m *Mesh) TileAt(x, y int) int { return y*m.w + x }

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.Coord(src)
	dx, dy := m.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Flits returns the number of flits a message with the given payload
// occupies on this mesh's links (header included).
func (m *Mesh) Flits(payloadBytes int) int {
	bits := (HeaderBytes + payloadBytes) * 8
	f := (bits + m.linkBits - 1) / m.linkBits
	if f < 1 {
		f = 1
	}
	return f
}

// path returns the X-Y route from src to dst as a sequence of directed link
// indices (each link identified by its source router and exit direction).
// An empty path means src == dst.
func (m *Mesh) path(src, dst int) []int {
	links := m.pathBuf[:0]
	x, y := m.Coord(src)
	dx, dy := m.Coord(dst)
	for x != dx {
		from := m.TileAt(x, y)
		if dx > x {
			links = append(links, from*int(numDirs)+int(dirEast))
			x++
		} else {
			links = append(links, from*int(numDirs)+int(dirWest))
			x--
		}
	}
	for y != dy {
		from := m.TileAt(x, y)
		if dy > y {
			links = append(links, from*int(numDirs)+int(dirSouth))
			y++
		} else {
			links = append(links, from*int(numDirs)+int(dirNorth))
			y--
		}
	}
	m.pathBuf = links
	return links
}

// Send routes one message and invokes deliver at arrival. Bandwidth is
// modeled by reserving each traversed link for the message's flit count;
// latency is per-hop router+link plus serialization of the tail.
func (m *Mesh) Send(src, dst int, class stats.MsgClass, payloadBytes int, deliver func(event.Cycle)) {
	m.SendCall(src, dst, class, payloadBytes, runDeliver, event.Ref{Obj: deliver})
}

// runDeliver and runDeliverTo adapt the two delivery-callback shapes onto
// the fixed-payload event form; the func values ride in Ref.Obj unboxed.
func runDeliver(now event.Cycle, ref event.Ref) {
	ref.Obj.(func(event.Cycle))(now)
}

func runDeliverTo(now event.Cycle, ref event.Ref) {
	ref.Obj.(func(int, event.Cycle))(int(ref.A), now)
}

// SendCall is Send with a fixed-payload delivery callback: call(now, ref)
// fires at arrival and the whole send allocates nothing.
func (m *Mesh) SendCall(src, dst int, class stats.MsgClass, payloadBytes int, call event.CallFunc, ref event.Ref) {
	flits := m.Flits(payloadBytes)
	now := m.eng.Now()
	m.st.Messages[class]++
	if src == dst {
		// Local delivery through the tile's crossbar: one cycle, no link
		// traffic.
		if m.tr != nil {
			m.tr.Emit(uint64(now), src, trace.KindNocSend, nocKey(src, dst), 0, int64(class))
		}
		if m.chk != nil {
			call, ref = m.probeMessage(now, src, dst, class, 0, call, ref)
		}
		m.eng.ScheduleCall(1, call, ref)
		return
	}
	if m.chk != nil {
		call, ref = m.probeMessage(now, src, dst, class, flits, call, ref)
	}
	if m.tr != nil {
		m.tr.Emit(uint64(now), src, trace.KindNocSend, nocKey(src, dst), int64(flits), int64(class))
	}
	m.st.Flits[class] += uint64(flits)

	// Reserve the X-Y path against the link-occupancy state.
	arrive := now
	for _, l := range m.path(src, dst) {
		start := arrive
		if m.linkFree[l] > start {
			start = m.linkFree[l]
		}
		m.linkFree[l] = start + event.Cycle(flits)
		m.st.FlitHops[class] += uint64(flits)
		m.st.LinkBusy += uint64(flits)
		if m.tr != nil {
			m.tr.AddLinkFlits(l, flits)
			m.tr.Emit(uint64(start), l/int(numDirs), trace.KindNocHop, uint64(l),
				int64(flits), int64(start+event.Cycle(flits)))
		}
		arrive = start + m.routerLat + m.linkLat
	}
	arrive += event.Cycle(flits - 1) // tail serialization at ejection
	if m.tr != nil {
		// Stamped with the (future) arrival cycle at schedule time: no
		// wrapper closure, so tracing never perturbs the delivery path.
		m.tr.Emit(uint64(arrive), dst, trace.KindNocDeliver, nocKey(src, dst), int64(flits), int64(src))
	}
	m.eng.AtCall(arrive, call, ref)
}

// Multicast routes one message to several destinations over a shared X-Y
// tree: links common to multiple destinations carry the flits once. deliver
// is invoked once per destination with that destination's arrival time.
func (m *Mesh) Multicast(src int, dsts []int, class stats.MsgClass, payloadBytes int, deliver func(dst int, now event.Cycle)) {
	if len(dsts) == 0 {
		return
	}
	if len(dsts) == 1 {
		m.SendCall(src, dsts[0], class, payloadBytes, runDeliverTo,
			event.Ref{Obj: deliver, A: int64(dsts[0])})
		return
	}
	flits := m.Flits(payloadBytes)
	now := m.eng.Now()
	m.st.Messages[class]++
	m.st.Flits[class] += uint64(flits)
	if m.tr != nil {
		m.tr.Emit(uint64(now), src, trace.KindNocSend, nocKey(src, dsts[0]),
			int64(flits), int64(class))
	}
	if m.chk != nil {
		// The tree carries the flits once however many branches deliver
		// them; drain the books when the last destination has been served.
		m.sanInjected[class] += uint64(flits)
		m.sanInFlight += uint64(len(dsts))
		m.chk.Trace(sanitize.Record{
			Cycle: uint64(now), Tile: src, Comp: "noc", Event: "mcast",
			Key: nocKey(src, dsts[0]), A: int64(flits), B: int64(len(dsts)),
		})
		inner := deliver
		remaining := len(dsts)
		deliver = func(dst int, now event.Cycle) {
			m.sanInFlight--
			m.sanDelivered++
			if remaining--; remaining == 0 {
				m.sanDrained[class] += uint64(flits)
			}
			inner(dst, now)
		}
	}
	// Union of links across destination paths; each tree link carries the
	// flits exactly once. Links already reserved by an earlier branch are
	// recognized by their epoch stamp.
	if m.seenEpoch == nil {
		m.seenArrive = make([]event.Cycle, len(m.linkFree))
		m.seenEpoch = make([]uint64, len(m.linkFree))
	}
	m.epoch++
	var unicastHops, treeHops int
	for _, dst := range dsts {
		if dst == src {
			m.eng.ScheduleCall(1, runDeliverTo, event.Ref{Obj: deliver, A: int64(dst)})
			continue
		}
		arrive := now
		for _, l := range m.path(src, dst) {
			unicastHops++
			if m.seenEpoch[l] == m.epoch {
				// Link already reserved by an earlier branch of the tree;
				// reuse its timing.
				arrive = m.seenArrive[l]
				continue
			}
			treeHops++
			start := arrive
			if m.linkFree[l] > start {
				start = m.linkFree[l]
			}
			m.linkFree[l] = start + event.Cycle(flits)
			m.st.FlitHops[class] += uint64(flits)
			m.st.LinkBusy += uint64(flits)
			if m.tr != nil {
				m.tr.AddLinkFlits(l, flits)
				m.tr.Emit(uint64(start), l/int(numDirs), trace.KindNocHop, uint64(l),
					int64(flits), int64(start+event.Cycle(flits)))
			}
			arrive = start + m.routerLat + m.linkLat
			m.seenArrive[l] = arrive
			m.seenEpoch[l] = m.epoch
		}
		at := arrive + event.Cycle(flits-1)
		if m.tr != nil {
			m.tr.Emit(uint64(at), dst, trace.KindNocDeliver, nocKey(src, dst), int64(flits), int64(src))
		}
		m.eng.AtCall(at, runDeliverTo, event.Ref{Obj: deliver, A: int64(dst)})
	}
	if unicastHops > treeHops {
		m.st.MulticastSave += uint64((unicastHops - treeHops) * flits)
	}
}

// nocKey tags a src/dst pair for trace filtering without colliding with
// the line addresses and stream keys other components use.
func nocKey(src, dst int) uint64 {
	return uint64(0xA)<<56 | uint64(src)<<16 | uint64(dst)
}

// probeMessage books one unicast message into the sanitizer's conservation
// accounts and returns a wrapped delivery callback that balances them
// (allocating — the sanitizer is off in measured runs). flits is 0 for
// local (src == dst) deliveries, which never touch a link.
func (m *Mesh) probeMessage(now event.Cycle, src, dst int, class stats.MsgClass, flits int, call event.CallFunc, ref event.Ref) (event.CallFunc, event.Ref) {
	m.sanInjected[class] += uint64(flits)
	m.sanInFlight++
	m.chk.Trace(sanitize.Record{
		Cycle: uint64(now), Tile: src, Comp: "noc", Event: "send:" + class.String(),
		Key: nocKey(src, dst), A: int64(flits), B: int64(dst),
	})
	wrapped := func(now event.Cycle, _ event.Ref) {
		m.sanInFlight--
		m.sanDelivered++
		m.sanDrained[class] += uint64(flits)
		call(now, ref)
	}
	return wrapped, event.Ref{}
}

// Audit verifies the end-of-run conservation laws: no delivery is still in
// flight, every injected flit was drained by a completed delivery, and the
// sanitizer's independent books agree with the Stats the figures report.
// It is a no-op without an attached checker; call it only once the event
// queue has drained (in-flight messages are not violations mid-run).
func (m *Mesh) Audit() {
	if m.chk == nil {
		return
	}
	if m.sanInFlight != 0 {
		m.chk.Failf(0, "noc: %d deliveries still in flight after run completed (%d delivered)",
			m.sanInFlight, m.sanDelivered)
	}
	for c := stats.MsgClass(0); c < stats.NumClasses; c++ {
		if m.sanInjected[c] != m.sanDrained[c] {
			m.chk.Failf(0, "noc: class %v flit books unbalanced: injected %d, drained %d",
				c, m.sanInjected[c], m.sanDrained[c])
		}
		if m.sanInjected[c] != m.st.Flits[c] {
			m.chk.Failf(0, "noc: class %v stats disagree with sanitizer books: Stats.Flits=%d, injected=%d",
				c, m.st.Flits[c], m.sanInjected[c])
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// String describes the mesh.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh %dx%d %d-bit links", m.w, m.h, m.linkBits)
}
