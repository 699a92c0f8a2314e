package debughttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// TestLatencyAndFlightEndpoints is the integration gate for the always-on
// observability surface: /latency renders the quantile table, /flight
// streams a valid Chrome trace JSON dump of the armed recorder, and both
// report their disabled state cleanly on a bare executor.
func TestLatencyAndFlightEndpoints(t *testing.T) {
	e := executor.New(2,
		executor.WithMetrics(),
		executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(0))
	defer e.Shutdown()
	tf := core.NewShared(e)
	a := tf.Emplace1(func() {}).Name("first")
	b := tf.Emplace1(func() {}).Name("second")
	a.Precede(b)
	for i := 0; i < 10; i++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(New(e).Handler())
	defer srv.Close()

	status, body := get(t, srv, "/debug/taskflow/latency")
	if status != http.StatusOK {
		t.Fatalf("latency status %d", status)
	}
	for _, want := range []string{"queue-wait", "exec", "end-to-end", "p99", "_unbound"} {
		if !strings.Contains(body, want) {
			t.Fatalf("latency table lacks %q:\n%s", want, body)
		}
	}

	// The Prometheus scrape carries the histogram series alongside the
	// counters.
	status, body = get(t, srv, "/debug/taskflow/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, want := range []string{
		"# TYPE gotaskflow_flow_latency_e2e_seconds histogram",
		`gotaskflow_flow_latency_e2e_seconds_bucket{flow="_unbound",class="none",le="+Inf"}`,
		"gotaskflow_flow_latency_queue_wait_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics scrape lacks %q", want)
		}
	}

	status, body = get(t, srv, "/debug/taskflow/flight")
	if status != http.StatusOK {
		t.Fatalf("flight status %d", status)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("flight dump is not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("flight dump holds no events")
	}
	if _, ok := doc.OtherData["droppedEvents"]; !ok {
		t.Fatal("flight dump missing droppedEvents accounting")
	}

	// Disabled paths: friendly message for /latency, 409 for /flight.
	bare := executor.New(1)
	defer bare.Shutdown()
	bsrv := httptest.NewServer(New(bare).Handler())
	defer bsrv.Close()
	if status, body = get(t, bsrv, "/debug/taskflow/latency"); status != http.StatusOK || !strings.Contains(body, "disabled") {
		t.Fatalf("bare latency = %d %q, want 200 + disabled notice", status, body)
	}
	if status, _ = get(t, bsrv, "/debug/taskflow/flight"); status != http.StatusConflict {
		t.Fatalf("bare flight status %d, want 409", status)
	}
}

// TestObservabilityHammer hammers the full debug
// surface while the executor is live: trace start/stop racing flight
// snapshots, /flows and /latency racing flow registration, all under
// -race. Responses must stay well-formed; start/stop may 409 when the
// race loses, which is the documented contract.
func TestObservabilityHammer(t *testing.T) {
	e := executor.New(4,
		executor.WithMetrics(),
		executor.WithTracing(1<<10),
		executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(1<<10))
	defer e.Shutdown()
	srv := httptest.NewServer(New(e).Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var workload, hammers sync.WaitGroup

	// Workload: flow-bound topologies churning while new flows register,
	// until the hammers finish.
	workload.Add(1)
	go func() {
		defer workload.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := e.NewFlow(fmt.Sprintf("tenant-%d", i), executor.FlowConfig{Class: executor.Batch})
			tf := core.NewShared(e).SetFlow(f)
			tf.Emplace(func() {}, func() {}, func() {})
			if err := tf.Run(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	hammer := func(path string, okStatuses ...int) {
		defer hammers.Done()
		for i := 0; i < 50; i++ {
			status, _ := get(t, srv, path)
			ok := false
			for _, s := range okStatuses {
				if status == s {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%s returned %d", path, status)
				return
			}
		}
	}
	hammers.Add(5)
	go hammer("/debug/taskflow/flows", http.StatusOK)
	go hammer("/debug/taskflow/latency", http.StatusOK)
	go hammer("/debug/taskflow/flight", http.StatusOK)
	go hammer("/debug/taskflow/trace/start", http.StatusOK, http.StatusConflict)
	go hammer("/debug/taskflow/trace/stop", http.StatusOK, http.StatusConflict)

	hammers.Wait()
	close(stop)
	workload.Wait()
	// A start-hammer may have left a capture active; stop it so the
	// executor shuts down with no armed session.
	e.StopTrace()
}
