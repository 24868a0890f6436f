package mem

import (
	"streamfloat/internal/event"
	"streamfloat/internal/stats"
)

// DRAM models the off-chip memory system: a set of controllers (one per
// corner tile), each with a fixed access latency and a bandwidth-limited
// service queue. Aggregate bandwidth is divided evenly among controllers,
// matching the four-corner DDR3 setup of Table III.
type DRAM struct {
	eng      *event.Engine
	st       *stats.Stats
	latency  event.Cycle
	perCtrl  float64 // bytes per cycle per controller
	nextFree []float64
	tiles    []int // tile hosting each controller
}

// NewDRAM builds the memory system. bandwidthBpc is the total bytes/cycle
// across all controllers; tiles lists the mesh tiles hosting controllers.
func NewDRAM(eng *event.Engine, st *stats.Stats, latency int, bandwidthBpc float64, tiles []int) *DRAM {
	n := len(tiles)
	if n == 0 {
		panic("mem: DRAM needs at least one controller")
	}
	return &DRAM{
		eng:      eng,
		st:       st,
		latency:  event.Cycle(latency),
		perCtrl:  bandwidthBpc / float64(n),
		nextFree: make([]float64, n),
		tiles:    append([]int(nil), tiles...),
	}
}

// CtrlFor picks the controller servicing addr. Lines are spread across
// controllers at 4 KiB granularity to balance load while preserving row
// locality within a page.
func (d *DRAM) CtrlFor(addr uint64) int {
	return int((addr >> pageShift) % uint64(len(d.tiles)))
}

// CtrlTile returns the mesh tile hosting controller i.
func (d *DRAM) CtrlTile(i int) int { return d.tiles[i] }

// NumControllers reports the controller count.
func (d *DRAM) NumControllers() int { return len(d.tiles) }

// Access schedules a read or write of size bytes at addr and invokes done
// when the device completes. The controller serializes requests at its
// bandwidth; latency is added on top of queueing delay.
func (d *DRAM) Access(addr uint64, size int, write bool, done func(event.Cycle)) {
	ctrl := d.CtrlFor(addr)
	now := float64(d.eng.Now())
	start := now
	if d.nextFree[ctrl] > start {
		start = d.nextFree[ctrl]
	}
	d.nextFree[ctrl] = start + float64(size)/d.perCtrl
	if write {
		d.st.DRAMWrites++
	} else {
		d.st.DRAMReads++
	}
	finish := event.Cycle(start) + d.latency
	d.eng.At(finish, done)
}
