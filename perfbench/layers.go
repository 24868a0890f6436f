package main

import (
	"streamfloat/internal/stats"
	"streamfloat/internal/system"
)

// setSimLayers derives the workload, system and modelled-component metrics
// from the traced calls of one pass: spans holds the pass's
// workload.prepare, system.build and system.run spans, points the spans of
// the whole points they belong to, and results every point's Results.
func (r *report) setSimLayers(spans, points []span, results []system.Results) {
	prep := named(spans, "workload.prepare")
	build := named(spans, "system.build")
	run := named(spans, "system.run")
	if len(run) == 0 {
		return
	}
	runS := spanSeconds(run)
	r.set("workload.prepare_s", spanSeconds(prep)/float64(len(prep)))
	r.set("system.build_s", spanSeconds(build)/float64(len(build)))
	r.set("system.run_s", runS/float64(len(run)))
	r.set("system.build_share", spanSeconds(build)/spanSeconds(points))
	events := sumOf(run, func(s span) float64 { return float64(s.Events) })
	r.set("system.events", events)
	if events > 0 {
		r.set("system.host_ns_per_event", runS*1e9/events)
	}

	var sum stats.Stats
	for _, res := range results {
		sum.Merge(&res.Stats)
	}
	var messages uint64
	for _, m := range sum.Messages {
		messages += m
	}
	r.set("system.sim_instr_per_s", float64(sum.Instructions)/runS)
	r.set("sim.cycles", float64(sum.Cycles))
	r.set("cpu.instructions", float64(sum.Instructions))
	r.set("cpu.iterations", float64(sum.Iterations))
	r.set("cache.l1_misses", float64(sum.L1Misses))
	r.set("cache.l2_evictions", float64(sum.L2Evictions))
	r.set("cache.l3_requests", float64(sum.TotalL3Requests()))
	r.set("noc.flit_hops", float64(sum.TotalFlitHops()))
	r.set("noc.messages", float64(messages))
	r.set("mem.dram_reads", float64(sum.DRAMReads))
	r.set("core.streams_floated", float64(sum.StreamsFloated))
	r.set("core.sel3_accesses", float64(sum.SEL3Accesses))
	r.set("prefetch.issued", float64(sum.PrefetchIssued))
	r.set("prefetch.useful", float64(sum.PrefetchUseful))
}

// setAllocs reports the mean allocations of the system.build and
// system.run calls among spans, which must have been recorded one call at
// a time.
func (r *report) setAllocs(spans []span) {
	build := named(spans, "system.build")
	run := named(spans, "system.run")
	if len(build) == 0 || len(run) == 0 {
		return
	}
	mallocs := func(s span) float64 { return float64(s.Mallocs) }
	r.set("system.build_allocs", sumOf(build, mallocs)/float64(len(build)))
	r.set("system.run_allocs", sumOf(run, mallocs)/float64(len(run)))
	r.set("system.run_mb", sumOf(run, func(s span) float64 { return float64(s.Bytes) / 1e6 })/float64(len(run)))
}
