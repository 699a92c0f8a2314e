// Package metrics exports an executor's scheduler counters (see
// internal/executor WithMetrics) to standard monitoring surfaces using
// only the standard library:
//
//   - WritePrometheus renders the Prometheus text exposition format;
//   - Handler serves it over HTTP (mount under /metrics);
//   - Publish registers the snapshot as an expvar variable, appearing as
//     JSON under the process's /debug/vars.
//
// All exports read a fresh MetricsSnapshot per scrape: they are safe while
// the executor runs and cost nothing between scrapes.
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// Source is the snapshot provider — *executor.Executor implements it.
type Source interface {
	MetricsSnapshot() (executor.Snapshot, bool)
}

// latencySource provides the per-flow latency histograms —
// *executor.Executor implements it (WithLatencyHistograms). Sources that
// also implement it get gotaskflow_flow_latency_* histogram series in the
// Prometheus export, even when the scheduler counters (WithMetrics) are
// off.
type latencySource interface {
	LatencyStats() ([]executor.FlowLatencySummary, bool)
}

// promCounter and promGauge describe one exported series.
type series struct {
	name    string
	help    string
	typ     string // "counter" or "gauge"
	per     func(*executor.WorkerStats) float64
	perFlow func(*executor.FlowStats) float64
	total   func(*executor.Snapshot) float64
}

// exported is the schema of the Prometheus export: per-worker series carry
// a worker="<i>" label, per-flow series flow="<name>" and class="<class>"
// labels; executor-wide series carry none.
var exported = []series{
	{"gotaskflow_deque_pushes_total", "Tasks pushed to the worker's deque", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.Pushes) }, nil, nil},
	{"gotaskflow_deque_pops_total", "Tasks the owner popped back out", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.Pops) }, nil, nil},
	{"gotaskflow_deque_stolen_from_total", "Tasks thieves stole out of the deque", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.StolenFrom) }, nil, nil},
	{"gotaskflow_deque_grows_total", "Deque ring reallocations", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.QueueGrows) }, nil, nil},
	{"gotaskflow_deque_max_depth", "Push-time high watermark of resident tasks", "gauge",
		func(w *executor.WorkerStats) float64 { return float64(w.MaxQueueDepth) }, nil, nil},
	{"gotaskflow_deque_depth", "Resident tasks at scrape time", "gauge",
		func(w *executor.WorkerStats) float64 { return float64(w.QueueDepth) }, nil, nil},
	{"gotaskflow_steal_attempts_total", "Steal sweeps over victims and the injection queue", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.StealAttempts) }, nil, nil},
	{"gotaskflow_steals_total", "Successful steal operations by the worker", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.Steals) }, nil, nil},
	{"gotaskflow_stolen_tasks_total", "Tasks moved out of other deques, incl. batch extras", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.StolenTasks) }, nil, nil},
	{"gotaskflow_steal_batches_total", "Steal operations that moved more than one task", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.StealBatches) }, nil, nil},
	{"gotaskflow_injection_drains_total", "Drain operations on the external injection queue", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.InjectionDrains) }, nil, nil},
	{"gotaskflow_injection_drained_tasks_total", "Tasks taken from the injection queue, incl. batch extras", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.InjectionDrainedTasks) }, nil, nil},
	{"gotaskflow_cache_hits_total", "Tasks run as continuations (Algorithm 1's task cache)", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.CacheHits) }, nil, nil},
	{"gotaskflow_prewaits_total", "Park announcements on the eventcount (prewait)", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.Prewaits) }, nil, nil},
	{"gotaskflow_wait_cancels_total", "Prewaits cancelled because the re-check found work", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.WaitCancels) }, nil, nil},
	{"gotaskflow_parks_total", "Committed parks on the eventcount", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.Parks) }, nil, nil},
	{"gotaskflow_executed_total", "Tasks invoked by the worker", "counter",
		func(w *executor.WorkerStats) float64 { return float64(w.Executed) }, nil, nil},

	{"gotaskflow_flow_pushes_total", "Tasks pushed onto the flow's priority queue", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.Pushes) }, nil},
	{"gotaskflow_flow_drains_total", "Drain operations on the flow's queue", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.DrainOps) }, nil},
	{"gotaskflow_flow_drained_tasks_total", "Tasks taken from the flow's queue, incl. batch extras", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.DrainedTasks) }, nil},
	{"gotaskflow_flow_executed_total", "Flow-bound task executions retired", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.Executed) }, nil},
	{"gotaskflow_flow_admitted_total", "Executions charged against the flow's in-flight quota", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.AdmittedTasks) }, nil},
	{"gotaskflow_flow_released_total", "Quota charges returned at topology completion", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.ReleasedTasks) }, nil},
	{"gotaskflow_flow_admission_rejects_total", "Executions refused by the in-flight quota", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.AdmissionRejects) }, nil},
	{"gotaskflow_flow_overload_sheds_total", "Executions shed at the backlog watermark", "counter",
		nil, func(f *executor.FlowStats) float64 { return float64(f.OverloadSheds) }, nil},
	{"gotaskflow_flow_in_flight", "Admitted executions not yet released", "gauge",
		nil, func(f *executor.FlowStats) float64 { return float64(f.InFlight) }, nil},
	{"gotaskflow_flow_peak_in_flight", "High watermark of admitted executions", "gauge",
		nil, func(f *executor.FlowStats) float64 { return float64(f.PeakInFlight) }, nil},
	{"gotaskflow_flow_backlog", "Flow queue residents at scrape time", "gauge",
		nil, func(f *executor.FlowStats) float64 { return float64(f.Backlog) }, nil},
	{"gotaskflow_flow_weight", "Weighted-round-robin share within the class", "gauge",
		nil, func(f *executor.FlowStats) float64 { return float64(f.Weight) }, nil},

	{"gotaskflow_injection_pushes_total", "Tasks submitted from outside the pool", "counter",
		nil, nil, func(s *executor.Snapshot) float64 { return float64(s.Injection.Pushes) }},
	{"gotaskflow_injection_depth", "Injection queue residents at scrape time", "gauge",
		nil, nil, func(s *executor.Snapshot) float64 { return float64(s.Injection.Depth) }},
	{"gotaskflow_wakes_precise_total", "Wakeups issued because new work arrived", "counter",
		nil, nil, func(s *executor.Snapshot) float64 { return float64(s.PreciseWakes) }},
}

// WritePrometheus writes the source's current counters in the Prometheus
// text exposition format (version 0.0.4). Counter series require the
// source to have been built with metrics; latency histogram series
// (latencySource) render independently, so a histogram-only executor
// still exports them. A source with neither writes nothing and returns
// nil.
func WritePrometheus(w io.Writer, src Source) error {
	var b strings.Builder
	if snap, ok := src.MetricsSnapshot(); ok {
		for _, s := range exported {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
			switch {
			case s.per != nil:
				for i := range snap.Workers {
					fmt.Fprintf(&b, "%s{worker=\"%d\"} %g\n", s.name, i, s.per(&snap.Workers[i]))
				}
			case s.perFlow != nil:
				for i := range snap.Flows {
					f := &snap.Flows[i]
					fmt.Fprintf(&b, "%s{flow=%q,class=%q} %g\n", s.name, f.Name, f.Class.String(), s.perFlow(f))
				}
			default:
				fmt.Fprintf(&b, "%s %g\n", s.name, s.total(&snap))
			}
		}
	}
	if ls, ok := src.(latencySource); ok {
		writeLatencySeries(&b, ls)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// latencySeries maps the three histogram dimensions to their exported
// names. Durations are exported in seconds per Prometheus convention.
var latencySeries = []struct {
	name string
	help string
	pick func(*executor.FlowLatencySummary) *executor.LatencySnapshot
}{
	{"gotaskflow_flow_latency_queue_wait_seconds", "Task wait from ready (queued) to body start",
		func(f *executor.FlowLatencySummary) *executor.LatencySnapshot { return &f.QueueWait }},
	{"gotaskflow_flow_latency_exec_seconds", "Task body execution time",
		func(f *executor.FlowLatencySummary) *executor.LatencySnapshot { return &f.Exec }},
	{"gotaskflow_flow_latency_e2e_seconds", "Task latency from ready to body end",
		func(f *executor.FlowLatencySummary) *executor.LatencySnapshot { return &f.EndToEnd }},
}

// unboundFlowLabel is the flow label of the default sink shared by
// topologies bound to no flow.
const unboundFlowLabel = "_unbound"

// flowLabels renders the {flow=...,class=...} label pair of one summary.
func flowLabels(f *executor.FlowLatencySummary) string {
	if f.Unbound {
		return fmt.Sprintf("flow=%q,class=%q", unboundFlowLabel, "none")
	}
	return fmt.Sprintf("flow=%q,class=%q", f.Flow, f.Class.String())
}

// writeLatencySeries renders the per-flow latency histograms as
// Prometheus histogram series: cumulative _bucket counts with le bounds
// in seconds, plus _sum (seconds) and _count.
func writeLatencySeries(b *strings.Builder, ls latencySource) {
	flows, ok := ls.LatencyStats()
	if !ok {
		return
	}
	bounds := executor.LatencyBucketBounds()
	for _, s := range latencySeries {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", s.name, s.help, s.name)
		for i := range flows {
			f := &flows[i]
			labels := flowLabels(f)
			h := s.pick(f)
			var cum uint64
			for bi, bound := range bounds {
				cum += h.Counts[bi]
				fmt.Fprintf(b, "%s_bucket{%s,le=\"%g\"} %d\n", s.name, labels, bound.Seconds(), cum)
			}
			fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", s.name, labels, h.Count)
			fmt.Fprintf(b, "%s_sum{%s} %g\n", s.name, labels, float64(h.Sum)/1e9)
			fmt.Fprintf(b, "%s_count{%s} %d\n", s.name, labels, h.Count)
		}
	}
}

// Handler returns an http.Handler serving the Prometheus text format —
// mount it wherever the scraper looks, conventionally /metrics. A
// metrics-disabled source serves an empty 200.
func Handler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, src); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Static wraps an already-taken Snapshot as a Source, so a run that has
// finished (and whose executor may be gone) can still be exported through
// WritePrometheus or Handler.
func Static(snap executor.Snapshot) Source { return staticSource{snap} }

type staticSource struct{ snap executor.Snapshot }

func (s staticSource) MetricsSnapshot() (executor.Snapshot, bool) { return s.snap, true }

// WriteRunSummary writes a compact human-readable digest of one
// instrumented run — the graph-level RunStats and the executor's scheduler
// counter totals — the form `repro -observe` prints for a wavefront or
// traversal run. A timed run (CollectRunStats(true)) appends the
// hot-task ranking: the top tasks by summed body time, under the same
// names the trace spans and DOT dumps use.
func WriteRunSummary(w io.Writer, rs core.RunStats, snap executor.Snapshot) error {
	t := snap.Total()
	_, err := fmt.Fprintf(w,
		"run:   tasks=%d span=%d parallelism=%.2f wall=%v busy=%v achieved=%.2f retries=%d skipped=%d\n"+
			"sched: executed=%d pops=%d stolen=%d-tasks/%d-steals/%d-batches/%d-attempts drained=%d-tasks/%d-drains cache-hits=%d parks=%d/%d-prewaits/%d-cancels wakes=%d max-depth=%d\n",
		rs.Tasks, rs.Span, rs.Parallelism, rs.Wall, rs.Busy, rs.AchievedParallelism,
		rs.Retries, rs.Skipped,
		t.Executed, t.Pops, t.StolenTasks, t.Steals, t.StealBatches, t.StealAttempts,
		t.InjectionDrainedTasks, t.InjectionDrains,
		t.CacheHits, t.Parks, t.Prewaits, t.WaitCancels,
		snap.PreciseWakes,
		t.MaxQueueDepth)
	if err != nil || len(rs.HotTasks) == 0 {
		return err
	}
	var b strings.Builder
	b.WriteString("hot:  ")
	for i, h := range rs.HotTasks {
		fmt.Fprintf(&b, " %d.%s ×%d (%v)", i+1, h.Name, h.Count, h.Total.Round(time.Microsecond))
	}
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// Publish registers the source under name as an expvar variable whose
// value is the full Snapshot marshalled as JSON, visible at /debug/vars.
// expvar panics on duplicate names, so publish each name once per process.
func Publish(name string, src Source) {
	expvar.Publish(name, expvar.Func(func() any {
		snap, ok := src.MetricsSnapshot()
		if !ok {
			return nil
		}
		return snap
	}))
}

// LatencyDigest is the compact per-flow latency summary rendered by
// /debug/taskflow/latency: quantiles
// interpolated from the histogram rather than the raw bucket arrays.
type LatencyDigest struct {
	Flow    string
	Class   string
	Unbound bool `json:",omitempty"`

	QueueWait QuantileDigest
	Exec      QuantileDigest
	EndToEnd  QuantileDigest
}

// QuantileDigest summarizes one histogram. Durations are nanoseconds in
// the JSON form (time.Duration's native marshalling).
type QuantileDigest struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
}

func digestOf(s *executor.LatencySnapshot) QuantileDigest {
	return QuantileDigest{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// Digest reduces the raw latency summaries to quantile digests, one per
// flow (the unbound sink first, when present).
func Digest(flows []executor.FlowLatencySummary) []LatencyDigest {
	out := make([]LatencyDigest, len(flows))
	for i := range flows {
		f := &flows[i]
		d := LatencyDigest{Flow: f.Flow, Class: f.Class.String(), Unbound: f.Unbound}
		if f.Unbound {
			d.Flow, d.Class = unboundFlowLabel, "none"
		}
		d.QueueWait = digestOf(&f.QueueWait)
		d.Exec = digestOf(&f.Exec)
		d.EndToEnd = digestOf(&f.EndToEnd)
		out[i] = d
	}
	return out
}
