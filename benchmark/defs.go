package main

import (
	"encoding/json"
	"io"
	"slices"
)

// metricDef names one metric. A gated metric may get worse by Bound, a share
// of the parent's median, or by Abs in its own unit, whichever is more,
// before a change is rejected; a metric with neither that is gated all the
// same (fail_share) may not get worse at all.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Abs    float64
}

type workloadDef struct {
	Name  string
	Why   string
	setup func(*env) (*instance, error)
}

// ungated is why BENCHMARK.json leaves a workload out, so that the driver
// gates nothing on it; the program runs and prints it all the same.
var ungated = map[string]string{
	"tenants_mixed": "tasks_per_s and cpu_ns_per_task spread 18-26 % over ten runs of one commit in three sets of four: batch throughput follows how the Go scheduler places the two drivers",
}

// runSeconds is the measuring time of one run the driver asks for: `rounds`
// rounds of runSeconds/rounds each.
const runSeconds = 8

// rounds is the number of timed windows of an untraced run, each on a
// freshly built workload. The state a set-up leaves (heap layout, thread
// placement) moves throughput more than anything inside a window does, so a
// run takes its medians over many set-ups of one second rather than the five
// rounds of two the issue proposed.
const rounds = 8

// findWorkload returns the workload called name, nil if there is none.
func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

var workloadDefs = []workloadDef{
	{"chain_rerun", "4096-node chain re-Run by one caller: pure task hand-off through the cache slot; deques, notifier and injection stay idle", func(ev *env) (*instance, error) { return setupChain(ev, false) }},
	{"chain_rerun_observed", "the same chain with metrics, histograms, flight recorder and run stats on: recording cost shows here and nowhere else", func(ev *env) (*instance, error) { return setupChain(ev, true) }},
	{"wavefront_dispatch", "paper Fig. 7: build, dispatch and tear down a 64x64 wavefront per op; construction, allocation and executor start/stop dominate", setupWavefront},
	{"traversal_rerun", "seeded 8192-node random DAG built once and re-Run: batch push, pop, steal, successor release and wake-ups dominate; no construction", setupTraversal},
	{"tenants_mixed", "256 interactive 4-node flows against 2 saturating batch flows on one executor: flow admit, class wheel and submit-wake-done round trip", setupTenants},
	{"pipeline_stream", "512 tokens through S P P S P S over 8 lines per op: only the pipeline engine and SubmitCached are on the path, core is not", setupPipeline},
	{"sta_incremental", "paper Fig. 9: tv80 incremental timing, a fresh task graph per update: coarse tasks plus per-update graph build, the application control", setupSTA},
}

// endToEndDefs are the metrics BENCHMARK.json lists as end to end, with
// the issue's bounds, which -compare applies: a tenth, a quarter for set-up
// time.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0},
	{"tasks_per_s", "1/s", "higher", 0.10, 0},
	{"op_p50_us", "us", "lower", 0.10, 0},
	{"cpu_ns_per_task", "ns", "lower", 0.10, 0},
}

// runLevelDefs are the other four figures every untraced run measures.
// -compare gates them like the end-to-end metrics, with the issue's bounds.
// BENCHMARK.json has to list them per layer: the driver's bound is a share
// of the parent's median and it takes no end-to-end metric that can be 0,
// where allocs_per_op, bytes_per_op and fail_share sit on the steady-state
// workloads; and ten runs of one commit spread op_p99_us by up to 17 % of its
// median, wider than its bound.
var runLevelDefs = []metricDef{
	{"op_p99_us", "us", "lower", 0.10, 0},
	{"allocs_per_op", "count", "lower", 0.02, 0.5},
	{"bytes_per_op", "B", "lower", 0.02, 64},
	{"fail_share", "share", "lower", 0, 0},
}

// driverBound is the bound BENCHMARK.json states for every end-to-end metric.
// The driver has no "unresolved" verdict: it refuses a benchmark whose ten
// runs of one commit spread wider than a metric's bound and asks for a third
// of it. On the host this was written on that spread is 2 to 8 % in a quiet
// quarter of an hour and 13 to 21 % on chain_rerun in a loud one (README,
// Steadiness), so a tenth cannot be promised to the driver and the contract's
// largest bound is.
const driverBound = 0.25

// gatedDefs are the metrics -compare gives a verdict on.
var gatedDefs = append(slices.Clone(endToEndDefs), runLevelDefs...)

// perLayerDefs are what a traced run reports to the driver.
var perLayerDefs = append(slices.Clone(runLevelDefs), layerDefs...)

var layerDefs = []metricDef{
	// wsq probes.
	{"wsq.push_pop_ns", "ns", "lower", 0, 0},
	{"wsq.push_batch_ns_per_item", "ns", "lower", 0, 0},
	{"wsq.steal_ns", "ns", "lower", 0, 0},
	{"wsq.steal_batch_ns_per_item", "ns", "lower", 0, 0},
	{"wsq.steal_empty_ns", "ns", "lower", 0, 0},
	{"wsq.contended_steal_ns", "ns", "lower", 0, 0},
	{"wsq.contended_steal_win_share", "share", "higher", 0, 0},

	// executor probes.
	{"executor.submit_wake_roundtrip_ns", "ns", "lower", 0, 0},
	{"executor.submit_busy_ns", "ns", "lower", 0, 0},
	{"executor.submit_batch_ns_per_task", "ns", "lower", 0, 0},
	{"executor.respawn_ns_per_hop", "ns", "lower", 0, 0},
	{"executor.start_stop_us", "us", "lower", 0, 0},
	{"executor.flow_admit_release_ns", "ns", "lower", 0, 0},
	{"executor.flow_submit_drain_ns_per_task", "ns", "lower", 0, 0},

	// executor counters of the traced round of the workload.
	{"executor.cache_hit_share", "share", "higher", 0, 0},
	{"executor.pop_share", "share", "higher", 0, 0},
	{"executor.steal_share", "share", "lower", 0, 0},
	{"executor.steal_success_share", "share", "higher", 0, 0},
	{"executor.steal_batch_avg", "count", "higher", 0, 0},
	{"executor.injection_drain_share", "share", "lower", 0, 0},
	{"executor.injection_batch_avg", "count", "higher", 0, 0},
	{"executor.flow_drain_share", "share", "lower", 0, 0},
	{"executor.flow_batch_avg", "count", "higher", 0, 0},
	{"executor.parks_per_ktask", "count", "lower", 0, 0},
	{"executor.wait_cancel_share", "share", "lower", 0, 0},
	{"executor.precise_wakes_per_ktask", "count", "lower", 0, 0},
	{"executor.prob_wakes_per_ktask", "count", "lower", 0, 0},
	{"executor.queue_grows", "count", "lower", 0, 0},
	{"executor.max_queue_depth", "count", "lower", 0, 0},
	{"executor.queue_wait_p50_us", "us", "lower", 0, 0},
	{"executor.queue_wait_p99_us", "us", "lower", 0, 0},
	{"executor.exec_p50_us", "us", "lower", 0, 0},
	{"executor.exec_p99_us", "us", "lower", 0, 0},
	{"executor.flow_interactive_e2e_p99_us", "us", "lower", 0, 0},
	{"executor.flow_interactive_jobs_per_s", "1/s", "higher", 0, 0},
	{"executor.flow_batch_tasks_per_s", "1/s", "higher", 0, 0},
	{"executor.flow_rejects", "count", "lower", 0, 0},
	{"executor.flow_sheds", "count", "lower", 0, 0},

	// Observability ladder on the chain: each minus the plain run of its lap.
	{"executor.obs_metrics_ns_per_task", "ns", "lower", 0, 0},
	{"executor.obs_histograms_ns_per_task", "ns", "lower", 0, 0},
	{"executor.obs_tracing_ns_per_task", "ns", "lower", 0, 0},
	{"executor.obs_flight_ns_per_task", "ns", "lower", 0, 0},
	{"executor.obs_all_ns_per_task", "ns", "lower", 0, 0},

	// core probes.
	{"core.emplace_ns_per_task", "ns", "lower", 0, 0},
	{"core.precede_ns_per_edge", "ns", "lower", 0, 0},
	{"core.first_run_ns_per_task", "ns", "lower", 0, 0},
	{"core.dispatch_ns_per_task", "ns", "lower", 0, 0},
	{"core.run_fixed_ns", "ns", "lower", 0, 0},
	{"core.run_chain_ns_per_task", "ns", "lower", 0, 0},
	{"core.run_fanout_ns_per_task", "ns", "lower", 0, 0},
	{"core.run_tree_ns_per_task", "ns", "lower", 0, 0},
	{"core.subflow_ns_per_child", "ns", "lower", 0, 0},
	{"core.condition_ns_per_iter", "ns", "lower", 0, 0},
	{"core.composed_ns_per_entry", "ns", "lower", 0, 0},
	{"core.composed_allocs_per_entry", "count", "lower", 0, 0},
	{"core.parallel_for_ns_per_elem", "ns", "lower", 0, 0},
	// From RunStats of the traced round of the workload.
	{"core.parallelism", "count", "higher", 0, 0},
	{"core.achieved_parallelism", "count", "higher", 0, 0},
	{"core.busy_share", "share", "higher", 0, 0},
	// Self-time shares of the traced round's op spans.
	{"core.build_share", "share", "lower", 0, 0},
	{"core.run_share", "share", "higher", 0, 0},
	{"executor.start_stop_share", "share", "lower", 0, 0},

	// pipeline probes.
	{"pipeline.tokens_per_s", "1/s", "higher", 0, 0},
	{"pipeline.ns_per_token_stage", "ns", "lower", 0, 0},
	{"pipeline.run_fixed_us", "us", "lower", 0, 0},
	{"pipeline.foreach_ns_per_elem", "ns", "lower", 0, 0},
	{"pipeline.defer_ns_per_deferral", "ns", "lower", 0, 0},
	{"pipeline.line_imbalance", "ratio", "lower", 0, 0},

	// Applications, from benchmark-side spans around the layer calls.
	{"wavefront.build_ms", "ms", "lower", 0, 0},
	{"wavefront.exec_ms", "ms", "lower", 0, 0},
	{"traversal.build_ms", "ms", "lower", 0, 0},
	{"sta.prepare_us_per_update", "us", "lower", 0, 0},
	{"sta.graph_build_us_per_update", "us", "lower", 0, 0},
	{"sta.exec_us_per_update", "us", "lower", 0, 0},
	{"sta.tasks_per_update", "count", "lower", 0, 0},

	// Paper baselines, the simplest-design floor and scaling.
	{"baseline.wavefront_sequential_ms", "ms", "lower", 0, 0},
	{"baseline.wavefront_flowgraph_ms", "ms", "lower", 0, 0},
	{"baseline.wavefront_omp_ms", "ms", "lower", 0, 0},
	{"baseline.traversal_sequential_ms", "ms", "lower", 0, 0},
	{"baseline.traversal_flowgraph_ms", "ms", "lower", 0, 0},
	{"baseline.traversal_omp_ms", "ms", "lower", 0, 0},
	{"baseline.sta_v1_us_per_update", "us", "lower", 0, 0},
	{"baseline.sta_sequential_us_per_update", "us", "lower", 0, 0},
	{"floor.chain_ns_per_task", "ns", "lower", 0, 0},
	{"floor.fanout_ns_per_task", "ns", "lower", 0, 0},
	{"floor.submit_wake_roundtrip_ns", "ns", "lower", 0, 0},
	{"scaling.w1_tasks_per_s", "1/s", "higher", 0, 0},
	{"scaling.efficiency", "share", "higher", 0, 0},

	// Process and tracer.
	{"runtime.gc_cycles", "count", "lower", 0, 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0, 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0, 0},
	{"trace.spans", "count", "lower", 0, 0},
	{"trace.overhead_share", "share", "lower", 0, 0},
}

// writeManifest prints BENCHMARK.json from the tables above, so the file and
// the program cannot name different metrics.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloadDefs {
		if ungated[d.Name] == "" {
			m.Workloads = append(m.Workloads, wl{d.Name, d.Why})
		}
	}
	for _, d := range endToEndDefs {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, driverBound})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
