package debughttp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/testutil"
)

// spin busy-waits for d, the stand-in for CPU-bound task work.
func spin(d time.Duration) {
	for s := time.Now(); time.Since(s) < d; {
	}
}

// TestLatencyAndFlightEndpoints is the integration gate for the always-on
// observability surface, all of it armed at once on a fairness-shaped load
// (an interactive chain pinging through a standing batch flood, so the
// interactive tasks see real queue wait): the watchdog stays quiet,
// /latency renders the quantile table, the interactive p99 of LatencyStats
// parses back out of the /metrics scrape's cumulative _bucket series,
// /flight streams a structurally valid dump of the armed recorder whose
// metadata accounts for every rendered event, and both endpoints report
// their disabled state cleanly on a bare executor.
func TestLatencyAndFlightEndpoints(t *testing.T) {
	e := executor.New(2,
		executor.WithMetrics(),
		executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(0))
	defer e.Shutdown()
	wd, err := e.StartWatchdog(executor.WatchdogConfig{Interval: 5 * time.Millisecond, StallAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tf := core.NewShared(e)
	a := tf.Emplace1(func() {}).Name("first")
	b := tf.Emplace1(func() {}).Name("second")
	a.Precede(b)
	for i := 0; i < 10; i++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	}

	const load = 200 * time.Millisecond
	start := time.Now()
	flood := make(chan error, 1)
	go func() {
		btf := core.NewShared(e).SetName("batch_flood").
			SetFlow(e.NewFlow("batch", executor.FlowConfig{Class: executor.Batch, Weight: 1}))
		bodies := make([]func(), 64)
		for i := range bodies {
			bodies[i] = func() { spin(20 * time.Microsecond) }
		}
		btf.Emplace(bodies...)
		var err error
		for err == nil && time.Since(start) < load {
			err = btf.Run()
		}
		flood <- err
	}()
	itf := core.NewShared(e).SetName("interactive_ping").
		SetFlow(e.NewFlow("interactive", executor.FlowConfig{Class: executor.Interactive, Weight: 4}))
	work := func() { spin(50 * time.Microsecond) }
	chain := itf.Emplace(work, work, work, work)
	for i := 1; i < len(chain); i++ {
		chain[i-1].Precede(chain[i])
	}
	for time.Since(start) < load {
		if err := itf.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-flood; err != nil {
		t.Fatal(err)
	}
	wd.Stop()
	if n := wd.Firings(); n != 0 {
		rep := wd.LastReport()
		t.Fatalf("watchdog fired %d times on the healthy path (last: %s %s)", n, rep.Reason, rep.Detail)
	}

	srv := httptest.NewServer(New(e).Handler())
	defer srv.Close()

	status, body := get(t, srv, "/debug/taskflow/latency")
	if status != http.StatusOK {
		t.Fatalf("latency status %d", status)
	}
	for _, want := range []string{"queue-wait", "exec", "end-to-end", "p99", "_unbound", "interactive", "batch"} {
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

	// The same p99 two ways: interpolated inside its bucket by LatencyStats,
	// and as that bucket's upper bound from the scrape.
	flows, _ := e.LatencyStats()
	var p99 time.Duration
	for i := range flows {
		if flows[i].Flow == "interactive" {
			p99 = flows[i].EndToEnd.Quantile(0.99)
		}
	}
	if p99 <= 0 {
		t.Fatalf("interactive end-to-end p99 = %v, want > 0 (summaries: %+v)", p99, flows)
	}
	promP99, err := testutil.PromQuantile(body, `gotaskflow_flow_latency_e2e_seconds_bucket{flow="interactive"`, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	bounds := executor.LatencyBucketBounds()
	want := bounds[len(bounds)-1]
	if i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= p99 }); i < len(bounds) {
		want = bounds[i]
	}
	if promP99 != want {
		t.Fatalf("p99 from the _bucket series = %v, LatencyStats p99 = %v lands in the bucket bounded by %v", promP99, p99, want)
	}

	status, body = get(t, srv, "/debug/taskflow/flight")
	if status != http.StatusOK {
		t.Fatalf("flight status %d", status)
	}
	doc, err := testutil.ParseTrace([]byte(body))
	if err == nil {
		err = doc.Flight()
	}
	if err != nil {
		t.Fatalf("flight dump: %v", err)
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
