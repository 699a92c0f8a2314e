package debughttp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/testutil"
)

// get fetches path from the test server and returns status and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDebugEndpointLifecycle is the integration gate for the live debug
// surface: metrics scrape, a full trace start → run → stop round trip
// whose response is valid Chrome trace JSON, and the annotated DOT dump.
func TestDebugEndpointLifecycle(t *testing.T) {
	e := executor.New(2, executor.WithMetrics(), executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := core.NewShared(e).SetName("debugflow").CollectRunStats(true)
	a := tf.Emplace1(func() {}).Name("first")
	b := tf.Emplace1(func() {}).Name("second")
	a.Precede(b)

	reg := New(e).Register("debugflow", tf)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	// One run before the scrape so the counters are non-zero.
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, srv, "/debug/taskflow/")
	if status != http.StatusOK {
		t.Fatalf("index status %d", status)
	}
	for _, want := range []string{"metrics", "trace/start", "trace/stop", "dot?flow=NAME", "debugflow"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index page lacks %q:\n%s", want, body)
		}
	}

	status, body = get(t, srv, "/debug/taskflow/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, want := range []string{
		"# TYPE gotaskflow_executed_total counter",
		"gotaskflow_executed_total{worker=\"0\"}",
		"gotaskflow_wakes_precise_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics scrape lacks %q:\n%s", want, body)
		}
	}

	// trace/stop before any start is a client error.
	if status, _ = get(t, srv, "/debug/taskflow/trace/stop"); status != http.StatusConflict {
		t.Fatalf("premature trace/stop status %d, want 409", status)
	}

	if status, _ = get(t, srv, "/debug/taskflow/trace/start"); status != http.StatusOK {
		t.Fatalf("trace/start status %d", status)
	}
	// Double start conflicts.
	if status, _ = get(t, srv, "/debug/taskflow/trace/start"); status != http.StatusConflict {
		t.Fatalf("double trace/start status %d, want 409", status)
	}

	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}

	status, body = get(t, srv, "/debug/taskflow/trace/stop")
	if status != http.StatusOK {
		t.Fatalf("trace/stop status %d", status)
	}
	doc, err := testutil.ParseTrace([]byte(body))
	if err == nil {
		err = doc.Capture()
	}
	if err != nil {
		t.Fatalf("trace/stop body: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["cat"] == "task" {
			spans[ev["name"].(string)] = true
		}
	}
	if !spans["first"] || !spans["second"] {
		t.Fatalf("trace lacks the named task spans: %v", spans)
	}

	status, body = get(t, srv, "/debug/taskflow/dot?flow=debugflow")
	if status != http.StatusOK {
		t.Fatalf("dot status %d", status)
	}
	for _, want := range []string{"digraph", "first", "second", "×"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dot dump lacks %q:\n%s", want, body)
		}
	}
	// Single registered flow: the name may be omitted.
	if status, _ = get(t, srv, "/debug/taskflow/dot"); status != http.StatusOK {
		t.Fatalf("nameless dot status %d", status)
	}
	if status, _ = get(t, srv, "/debug/taskflow/dot?flow=nope"); status != http.StatusNotFound {
		t.Fatalf("unknown-flow dot status %d, want 404", status)
	}

	if status, _ = get(t, srv, "/debug/taskflow/bogus"); status != http.StatusNotFound {
		t.Fatalf("unknown endpoint status %d, want 404", status)
	}
}

// TestDebugEndpointsDisabledExecutor covers an executor built without
// metrics or tracing: metrics serves a comment, trace/start conflicts.
func TestDebugEndpointsDisabledExecutor(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()
	srv := httptest.NewServer(New(e).Handler())
	defer srv.Close()

	status, body := get(t, srv, "/debug/taskflow/metrics")
	if status != http.StatusOK || !strings.Contains(body, "disabled") {
		t.Fatalf("disabled metrics scrape: status %d body %q", status, body)
	}
	if status, _ = get(t, srv, "/debug/taskflow/trace/start"); status != http.StatusConflict {
		t.Fatalf("trace/start without WithTracing: status %d, want 409", status)
	}
}

// TestListenAndServe exercises the dedicated-listener helper end to end
// over a real TCP socket.
func TestListenAndServe(t *testing.T) {
	e := executor.New(1, executor.WithMetrics())
	defer e.Shutdown()
	addr, stop, err := New(e).ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	resp, err := http.Get("http://" + addr + "/debug/taskflow/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "gotaskflow debug endpoints") {
		t.Fatalf("debug listener: status %d body %q", resp.StatusCode, body)
	}
}

// TestFlowsEndpoint: the multi-tenant flow table serves with and without
// registered flows, on a metrics-disabled executor (flow counters are
// always on).
func TestFlowsEndpoint(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()
	reg := New(e)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	status, body := get(t, srv, "/debug/taskflow/flows")
	if status != http.StatusOK {
		t.Fatalf("flows status %d", status)
	}
	if !strings.Contains(body, "no flows registered") {
		t.Fatalf("empty flow table unexpected:\n%s", body)
	}

	f := e.NewFlow("tenant-a", executor.FlowConfig{Class: executor.Interactive, Weight: 2, MaxInFlight: 8})
	tf := core.NewShared(e).SetFlow(f)
	tf.Emplace1(func() {})
	tf.Emplace1(func() {})
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}

	status, body = get(t, srv, "/debug/taskflow/flows")
	if status != http.StatusOK {
		t.Fatalf("flows status %d", status)
	}
	for _, want := range []string{
		"multi-tenant flows: 1",
		"tenant-a",
		"class=interactive",
		"weight=2",
		"quota=8",
		"admitted=2 released=2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("flow table lacks %q:\n%s", want, body)
		}
	}

	// The index advertises the endpoint.
	_, index := get(t, srv, "/debug/taskflow/")
	if !strings.Contains(index, "flows") || !strings.Contains(index, "1 flows registered") {
		t.Fatalf("index page lacks flows endpoint line:\n%s", index)
	}
}
