// Package debughttp serves the live observability surface of a running
// executor and its taskflows under /debug/taskflow/, in the spirit of the
// standard library's /debug/pprof/:
//
//	/debug/taskflow/            index: endpoints and registered taskflows
//	/debug/taskflow/metrics     scheduler counters, Prometheus text format
//	/debug/taskflow/flows       multi-tenant flow stats (always-on counters)
//	/debug/taskflow/latency     per-flow latency quantile table (p50/p90/p99/p999)
//	/debug/taskflow/trace/start begin an event-trace capture
//	/debug/taskflow/trace/stop  end it and stream Chrome trace-event JSON
//	/debug/taskflow/flight      snapshot the flight recorder as Chrome trace JSON
//	/debug/taskflow/dot         annotated DOT of a registered taskflow
//
// Mount Registry.Handler on any mux, or call ListenAndServe for a
// dedicated debug listener. Everything uses only the standard library.
//
// The trace endpoints drive the executor's Start/StopTrace capture
// window: start it, let the workload run, then stop it and load the
// response straight into Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. The executor must have been built with
// executor.WithTracing, otherwise trace/start reports 409 Conflict.
package debughttp

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/metrics"
	"gotaskflow/internal/tracing"
)

// Prefix is the URL prefix all endpoints live under.
const Prefix = "/debug/taskflow/"

// Registry binds one executor and any number of named taskflows to the
// debug endpoints. The zero value is not usable; construct with New.
type Registry struct {
	exec *executor.Executor

	mu    sync.Mutex
	flows map[string]*core.Taskflow
}

// New returns a Registry serving e's metrics and trace captures.
func New(e *executor.Executor) *Registry {
	return &Registry{exec: e, flows: map[string]*core.Taskflow{}}
}

// Register makes tf's annotated DOT dump available under
// /debug/taskflow/dot?flow=name. Re-registering a name replaces the
// previous taskflow. Returns r for chaining.
//
// The dump walks the graph without synchronizing against a concurrent
// Run, so mid-run snapshots are best-effort: counts may be mid-update,
// but the structure is stable once construction has finished.
func (r *Registry) Register(name string, tf *core.Taskflow) *Registry {
	r.mu.Lock()
	r.flows[name] = tf
	r.mu.Unlock()
	return r
}

// flowNames returns the registered names, sorted.
func (r *Registry) flowNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.flows))
	for name := range r.flows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// flow resolves a ?flow= query value. An empty name resolves when exactly
// one taskflow is registered.
func (r *Registry) flow(name string) (*core.Taskflow, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" && len(r.flows) == 1 {
		for _, tf := range r.flows {
			return tf, true
		}
	}
	tf, ok := r.flows[name]
	return tf, ok
}

// Handler returns the http.Handler serving every endpoint under Prefix.
// Mount it on a mux at Prefix (or at "/" — all routes are absolute).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(Prefix, r.index)
	mux.HandleFunc(Prefix+"metrics", r.serveMetrics)
	mux.HandleFunc(Prefix+"flows", r.serveFlows)
	mux.HandleFunc(Prefix+"latency", r.serveLatency)
	mux.HandleFunc(Prefix+"trace/start", r.traceStart)
	mux.HandleFunc(Prefix+"trace/stop", r.traceStop)
	mux.HandleFunc(Prefix+"flight", r.serveFlight)
	mux.HandleFunc(Prefix+"dot", r.dot)
	return mux
}

// ListenAndServe starts a dedicated debug server on addr (e.g.
// "localhost:6060"; port 0 picks a free one) in a background goroutine.
// It returns the bound address and a stop function that closes the
// listener.
func (r *Registry) ListenAndServe(addr string) (actual string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), srv.Close, nil
}

func (r *Registry) index(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != Prefix && req.URL.Path != Prefix[:len(Prefix)-1] {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "gotaskflow debug endpoints (%d workers)\n\n", r.exec.NumWorkers())
	fmt.Fprintf(w, "%smetrics      scheduler counters (Prometheus text; enabled=%v)\n", Prefix, r.exec.MetricsEnabled())
	fmt.Fprintf(w, "%sflows        multi-tenant flow stats (%d flows registered)\n", Prefix, len(r.exec.FlowStats()))
	fmt.Fprintf(w, "%slatency      per-flow latency quantiles (enabled=%v)\n", Prefix, r.exec.LatencyEnabled())
	fmt.Fprintf(w, "%strace/start  begin an event-trace capture (enabled=%v, active=%v)\n", Prefix, r.exec.TracingEnabled(), r.exec.TraceActive())
	fmt.Fprintf(w, "%strace/stop   end the capture, respond with Chrome trace-event JSON\n", Prefix)
	fmt.Fprintf(w, "%sflight       flight-recorder snapshot, Chrome trace-event JSON (enabled=%v)\n", Prefix, r.exec.FlightEnabled())
	fmt.Fprintf(w, "%sdot?flow=NAME  annotated DOT dump of a registered taskflow\n\n", Prefix)
	names := r.flowNames()
	fmt.Fprintf(w, "registered taskflows: %d\n", len(names))
	for _, name := range names {
		fmt.Fprintf(w, "  %s\n", name)
	}
}

func (r *Registry) serveMetrics(w http.ResponseWriter, req *http.Request) {
	if !r.exec.MetricsEnabled() {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintln(w, "# scheduler metrics disabled: build the executor with executor.WithMetrics()")
		return
	}
	metrics.Handler(r.exec).ServeHTTP(w, req)
}

// serveFlows renders the multi-tenant flow table. Flow counters are
// always-on atomics, so this endpoint works on executors built without
// WithMetrics.
func (r *Registry) serveFlows(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	stats := r.exec.FlowStats()
	fmt.Fprintf(w, "multi-tenant flows: %d\n", len(stats))
	if len(stats) == 0 {
		fmt.Fprintln(w, "no flows registered: create them with Executor.NewFlow")
		return
	}
	for _, st := range stats {
		quota, wm := "-", "-"
		if st.MaxInFlight > 0 {
			quota = fmt.Sprint(st.MaxInFlight)
		}
		if st.MaxBacklog > 0 {
			wm = fmt.Sprint(st.MaxBacklog)
		}
		fmt.Fprintf(w,
			"%-16s class=%-11s weight=%-2d quota=%-4s watermark=%-4s backlog=%-5d in-flight=%d/%d-peak "+
				"admitted=%d released=%d rejects=%d sheds=%d pushes=%d drained=%d/%d-drains executed=%d\n",
			st.Name, st.Class, st.Weight, quota, wm, st.Backlog, st.InFlight, st.PeakInFlight,
			st.AdmittedTasks, st.ReleasedTasks, st.AdmissionRejects, st.OverloadSheds,
			st.Pushes, st.DrainedTasks, st.DrainOps, st.Executed)
	}
}

// serveLatency renders the per-flow latency quantile table from the
// always-on histograms (executor.WithLatencyHistograms).
func (r *Registry) serveLatency(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flows, ok := r.exec.LatencyStats()
	if !ok {
		fmt.Fprintln(w, "latency histograms disabled: build the executor with executor.WithLatencyHistograms()")
		return
	}
	digests := metrics.Digest(flows)
	fmt.Fprintf(w, "per-flow latency (histogram quantiles, linear interpolation): %d sinks\n\n", len(digests))
	fmt.Fprintf(w, "%-16s %-11s %-10s %10s %10s %10s %10s %10s %10s\n",
		"flow", "class", "dimension", "count", "mean", "p50", "p90", "p99", "p999")
	for _, d := range digests {
		for _, row := range []struct {
			dim string
			q   metrics.QuantileDigest
		}{
			{"queue-wait", d.QueueWait},
			{"exec", d.Exec},
			{"end-to-end", d.EndToEnd},
		} {
			fmt.Fprintf(w, "%-16s %-11s %-10s %10d %10v %10v %10v %10v %10v\n",
				d.Flow, d.Class, row.dim, row.q.Count, row.q.Mean, row.q.P50, row.q.P90, row.q.P99, row.q.P999)
		}
	}
}

// serveFlight snapshots the always-armed flight recorder and streams it
// as Chrome trace-event JSON — the on-demand "what just happened" dump,
// with no capture session required.
func (r *Registry) serveFlight(w http.ResponseWriter, _ *http.Request) {
	tr, ok := r.exec.FlightSnapshot()
	if !ok {
		http.Error(w, "flight recorder disabled: build the executor with executor.WithFlightRecorder(0)", http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="taskflow_flight.json"`)
	if err := tracing.WriteTrace(w, tr); err != nil {
		// Headers are gone; the truncated body fails JSON parsing, which
		// is the strongest signal still available to the client.
		return
	}
}

func (r *Registry) traceStart(w http.ResponseWriter, _ *http.Request) {
	if !r.exec.TracingEnabled() {
		http.Error(w, "tracing disabled: build the executor with executor.WithTracing(0)", http.StatusConflict)
		return
	}
	if !r.exec.StartTrace() {
		http.Error(w, "a trace capture is already active; stop it first", http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "trace capture started; fetch trace/stop to collect it")
}

func (r *Registry) traceStop(w http.ResponseWriter, _ *http.Request) {
	if !r.exec.TraceActive() {
		http.Error(w, "no trace capture is active; fetch trace/start first", http.StatusConflict)
		return
	}
	tr, ok := r.exec.StopTrace()
	if !ok {
		http.Error(w, "no trace capture is active; fetch trace/start first", http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="taskflow_trace.json"`)
	if err := tracing.WriteTrace(w, tr); err != nil {
		// Headers are gone; the truncated body fails JSON parsing, which
		// is the strongest signal still available to the client.
		return
	}
}

func (r *Registry) dot(w http.ResponseWriter, req *http.Request) {
	name := req.URL.Query().Get("flow")
	tf, ok := r.flow(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown taskflow %q; registered: %v", name, r.flowNames()),
			http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	if err := tf.DumpAnnotated(w); err != nil {
		return
	}
}
