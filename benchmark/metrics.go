package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names a metric and its unit. The two tables below are the
// metrics BENCHMARK.json declares; the package's test keeps them equal.
type metricDef struct {
	name, unit string
}

// endToEndDefs are what a user of the simulator sees: host time and
// memory, and the simulated results that must not move when only the
// simulator gets faster. Every workload reports every one of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"router_cycles_per_s", "1/s"},
	{"states_per_s", "1/s"},
	{"host_us_per_packet", "us"},
	{"live_heap_mb", "MB"},
	{"heap_alloc_mb", "MB"},
	{"sim_avg_latency_cycles", "cycles"},
	{"sim_p95_latency_cycles", "cycles"},
	{"sim_accepted_pkts_per_node_cycle", "pkts"},
	{"sim_delivery_ratio", "ratio"},
}

// perLayerDefs are the metrics of single layers, named after the module
// they time or count. The first group is what the traced passes of the
// workload itself observed (0 when the workload never enters the layer);
// the rest is measured by runLayers, alike for every workload.
var perLayerDefs = []metricDef{
	{"trace.overhead_pct", "%"},
	{"noc.step_ns_per_router", "ns"},
	{"noc.step_allocs", "count"},
	{"noc.step_bytes", "B"},
	{"noc.active_router_share", "ratio"},
	{"noc.reroutes", "count"},
	{"noc.retransmits", "count"},
	{"noc.link_drops", "count"},
	{"noc.duplicates", "count"},
	{"noc.drain_cycles", "cycles"},
	{"fault.injected", "count"},
	{"modelcheck.states", "count"},
	{"modelcheck.transitions", "count"},
	{"experiments.run_app_s.p50", "s"},
	{"experiments.run_app_s.max", "s"},
	{"obs.stall_credit_share", "ratio"},
	{"obs.stall_arb_share", "ratio"},
	{"obs.stall_route_share", "ratio"},
	{"obs.stall_fault_share", "ratio"},
	{"obs.sa_grants", "count"},
	{"obs.link_flits", "count"},

	{"arbiter.rr_grant_ns", "ns"},
	{"arbiter.rr_grant_full_ns", "ns"},
	{"arbiter.bypassed_grant_ns", "ns"},
	{"vc.push_pop_ns", "ns"},
	{"flit.segment_ns_per_flit", "ns"},
	{"flit.segment_allocs_per_packet", "count"},
	{"crossbar.cycle_ns", "ns"},
	{"core.tick_idle_ns", "ns"},
	{"core.tick_loaded_ns", "ns"},
	{"core.flits_per_loaded_tick", "count"},
	{"core.tick_faulty_ns", "ns"},
	{"core.state_save_ns", "ns"},
	{"core.state_restore_ns", "ns"},
	{"topology.route_ns", "ns"},
	{"traffic.offered_ns_per_node_cycle", "ns"},
	{"traffic.offered_allocs_per_packet", "count"},
	{"workloads.offered_ns_per_node_cycle", "ns"},
	{"workloads.on_eject_ns", "ns"},
	{"noc.new_ms.8x8", "ms"},
	{"noc.new_ms.16x16", "ms"},
	{"noc.new_ms.32x32", "ms"},
	{"noc.new_ms.64x64", "ms"},
	{"noc.new_ms.torus16x16", "ms"},
	{"noc.step_idle_ns_per_router", "ns"},
	{"noc.step_w2_ratio", "ratio"},
	{"noc.snapshot_us.2x2", "us"},
	{"noc.restore_us.2x2", "us"},
	{"noc.statehash_us.2x2", "us"},
	{"noc.snapshot_us.8x8", "us"},
	{"noc.restore_us.8x8", "us"},
	{"noc.statehash_us.8x8", "us"},
	{"noc.set_link_fault_us.8x8", "us"},
	{"noc.set_link_fault_us.16x16", "us"},
	{"noc.set_link_fault_us.32x32", "us"},
	{"fault.campaign_trials_per_s", "1/s"},
	{"ftrouters.campaign_trials_per_s", "1/s"},
	{"stats.record_ejection_ns", "ns"},
	{"stats.percentile_us", "us"},
	{"obs.on_overhead_pct", "%"},
	{"obs.flight_overhead_pct", "%"},
	{"obs.window_snapshot_us", "us"},
	{"obs.flight_trigger_us", "us"},
	{"obs.build_spans_ms", "ms"},
	{"telemetry.scrape_ms", "ms"},
	{"modelcheck.us_per_transition.mesh", "us"},
	{"modelcheck.us_per_transition.torus", "us"},
	{"modelcheck.mc_walks_per_s", "1/s"},
	{"sweep.dispatch_us_per_job", "us"},
	{"tracefile.write_mb_per_s", "MB/s"},
	{"tracefile.read_mb_per_s", "MB/s"},
	{"rng.uint64_ns", "ns"},
}

// endToEndValues turns the untraced passes into the end-to-end metrics.
// Host-speed metrics come from the median slice over all passes, the
// pass-level ones from the median pass; the simulated ones are exact and
// come from the first pass.
func endToEndValues(setup, liveHeap float64, passes []passResult) map[string]float64 {
	first := passes[0]
	rate := medianRate(allSlices(passes))
	wall := medianOf(passes, func(p passResult) float64 { return p.wall })
	return map[string]float64{
		"setup_s":                          setup,
		"wall_s":                           wall,
		"router_cycles_per_s":              rate,
		"states_per_s":                     rate * first.states / first.routerCycles,
		"host_us_per_packet":               wall * 1e6 / first.packets,
		"live_heap_mb":                     liveHeap,
		"heap_alloc_mb":                    medianOf(passes, func(p passResult) float64 { return float64(p.mem.bytes) / 1e6 }),
		"sim_avg_latency_cycles":           first.sim.avgLatency,
		"sim_p95_latency_cycles":           first.sim.p95Latency,
		"sim_accepted_pkts_per_node_cycle": first.sim.accepted,
		"sim_delivery_ratio":               first.sim.delivery,
	}
}

// perLayerValues joins what the traced passes observed with the layer
// measurements. The tracing overhead is the traced passes' median wall
// against the untraced passes' of the same process.
func perLayerValues(layers map[string]float64, plain, traced []passResult, tr *spanLog) map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	for k, v := range layers {
		out[k] = v
	}
	wall := func(p passResult) float64 { return p.wall }
	out["trace.overhead_pct"] = (medianOf(traced, wall) - medianOf(plain, wall)) / medianOf(plain, wall) * 100

	first := traced[0]
	out["noc.step_ns_per_router"] = 1e9 / medianRate(allSlices(traced))
	out["noc.step_allocs"] = float64(first.mem.mallocs) / first.steps
	out["noc.step_bytes"] = float64(first.mem.bytes) / first.steps
	l := first.layer
	out["noc.active_router_share"] = l.activeSum / float64(max(l.activeN, 1))
	out["noc.reroutes"] = l.reroutes
	out["noc.retransmits"] = l.retransmits
	out["noc.link_drops"] = l.linkDrops
	out["noc.duplicates"] = l.duplicates
	out["noc.drain_cycles"] = l.drainCycles
	out["fault.injected"] = l.faultsInjected
	out["modelcheck.states"] = l.mcStates
	out["modelcheck.transitions"] = l.mcTransitions

	out["experiments.run_app_s.p50"], out["experiments.run_app_s.max"] = 0, 0
	if d := tr.durations("experiments.RunApp"); len(d) > 0 {
		s := sorted(d)
		out["experiments.run_app_s.p50"], out["experiments.run_app_s.max"] = median(s), s[len(s)-1]
	}

	stalls := 0.0
	for _, s := range l.obs.stalls {
		stalls += s
	}
	for k, name := range []string{"credit", "arb", "route", "fault"} {
		out["obs.stall_"+name+"_share"] = l.obs.stalls[k] / max(stalls, 1)
	}
	out["obs.sa_grants"] = l.obs.saGrants
	out["obs.link_flits"] = l.obs.linkFlit
	return out
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}
