package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gotaskflow/internal/executor"
)

func runSome(t *testing.T, e *executor.Executor, n int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := e.Submit(executor.NewTask(func(executor.Context) { wg.Done() })); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestWritePrometheus(t *testing.T) {
	e := executor.New(2, executor.WithMetrics())
	defer e.Shutdown()
	runSome(t, e, 100)

	var sb strings.Builder
	if err := WritePrometheus(&sb, e); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gotaskflow_executed_total counter",
		`gotaskflow_executed_total{worker="0"}`,
		`gotaskflow_executed_total{worker="1"}`,
		"# TYPE gotaskflow_deque_depth gauge",
		"gotaskflow_injection_pushes_total 100",
		"gotaskflow_wakes_precise_total",
		"# TYPE gotaskflow_prewaits_total counter",
		`gotaskflow_prewaits_total{worker="0"}`,
		`gotaskflow_wait_cancels_total{worker="1"}`,
		"# TYPE gotaskflow_injection_depth gauge",
		"gotaskflow_injection_depth 0",
		`gotaskflow_injection_drained_tasks_total{worker="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestWritePrometheusDisabledSource(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	var sb strings.Builder
	if err := WritePrometheus(&sb, e); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("metrics-disabled source produced output:\n%s", sb.String())
	}
}

func TestHandler(t *testing.T) {
	e := executor.New(2, executor.WithMetrics())
	defer e.Shutdown()
	runSome(t, e, 10)

	rec := httptest.NewRecorder()
	Handler(e).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "gotaskflow_executed_total") {
		t.Fatalf("handler body missing counters:\n%s", rec.Body.String())
	}
}

// TestScrapeWhileRunning covers the scrape-during-execution contract under
// the race detector.
func TestScrapeWhileRunning(t *testing.T) {
	e := executor.New(4, executor.WithMetrics())
	defer e.Shutdown()
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		var sb strings.Builder
		for {
			select {
			case <-stop:
				return
			default:
			}
			sb.Reset()
			if err := WritePrometheus(&sb, e); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		runSome(t, e, 50)
	}
	close(stop)
	rg.Wait()
}

// TestWritePrometheusFlowSeries: per-flow series carry flow and class
// labels and reflect the flow's always-on counters.
func TestWritePrometheusFlowSeries(t *testing.T) {
	e := executor.New(2, executor.WithMetrics())
	defer e.Shutdown()
	f := e.NewFlow("tenant-a", executor.FlowConfig{Class: executor.Batch, Weight: 3, MaxInFlight: 4})
	if err := f.Admit(2); err != nil {
		t.Fatal(err)
	}
	var done sync.WaitGroup
	done.Add(2)
	for i := 0; i < 2; i++ {
		if err := f.Submit(executor.NewTask(func(executor.Context) { done.Done() })); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	f.Release(2)

	var sb strings.Builder
	if err := WritePrometheus(&sb, e); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gotaskflow_flow_pushes_total counter",
		`gotaskflow_flow_pushes_total{flow="tenant-a",class="batch"} 2`,
		`gotaskflow_flow_admitted_total{flow="tenant-a",class="batch"} 2`,
		`gotaskflow_flow_released_total{flow="tenant-a",class="batch"} 2`,
		`gotaskflow_flow_in_flight{flow="tenant-a",class="batch"} 0`,
		`gotaskflow_flow_peak_in_flight{flow="tenant-a",class="batch"} 2`,
		`gotaskflow_flow_weight{flow="tenant-a",class="batch"} 3`,
		`gotaskflow_flow_drained_tasks_total{flow="tenant-a",class="batch"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
