package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

func TestRunStatsDisabledByDefault(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tf.Emplace1(func() {})
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tf.LastRunStats(); ok {
		t.Fatal("LastRunStats ok without CollectRunStats")
	}
}

func TestRunStatsLinearChain(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	prev := tf.Emplace1(func() {})
	for i := 0; i < 9; i++ {
		next := tf.Emplace1(func() {})
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, ok := tf.LastRunStats()
	if !ok {
		t.Fatal("LastRunStats not ok after a stats-collecting Run")
	}
	if rs.Tasks != 10 {
		t.Fatalf("Tasks = %d, want 10", rs.Tasks)
	}
	if rs.Span != 10 {
		t.Fatalf("Span = %d, want 10 for a 10-node chain", rs.Span)
	}
	if rs.Parallelism != 1 {
		t.Fatalf("Parallelism = %v, want 1 for a chain", rs.Parallelism)
	}
	if rs.Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", rs.Wall)
	}
	if rs.Busy != 0 || rs.AchievedParallelism != 0 {
		t.Fatalf("timing fields set without timing: Busy=%v AP=%v", rs.Busy, rs.AchievedParallelism)
	}
	if rs.Retries != 0 || rs.Skipped != 0 || rs.Errors != 0 || rs.Cancelled {
		t.Fatalf("clean run reported failures: %+v", rs)
	}
}

func TestRunStatsFanOutSpan(t *testing.T) {
	tf := New(4).CollectRunStats(false)
	defer tf.Close()
	src := tf.Emplace1(func() {})
	sink := tf.Emplace1(func() {})
	for i := 0; i < 8; i++ {
		mid := tf.Emplace1(func() {})
		src.Precede(mid)
		mid.Precede(sink)
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, _ := tf.LastRunStats()
	if rs.Tasks != 10 {
		t.Fatalf("Tasks = %d, want 10", rs.Tasks)
	}
	if rs.Span != 3 {
		t.Fatalf("Span = %d, want 3 for src->mid->sink", rs.Span)
	}
	if want := 10.0 / 3.0; rs.Parallelism != want {
		t.Fatalf("Parallelism = %v, want %v", rs.Parallelism, want)
	}
}

func TestRunStatsTiming(t *testing.T) {
	tf := New(2).CollectRunStats(true)
	defer tf.Close()
	ts := tf.Emplace(
		func() { time.Sleep(2 * time.Millisecond) },
		func() { time.Sleep(2 * time.Millisecond) },
	)
	_ = ts
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, _ := tf.LastRunStats()
	if rs.Busy < 4*time.Millisecond {
		t.Fatalf("Busy = %v, want >= 4ms of summed sleeps", rs.Busy)
	}
	if rs.AchievedParallelism <= 0 {
		t.Fatalf("AchievedParallelism = %v, want > 0", rs.AchievedParallelism)
	}
}

func TestRunStatsConditionLoopCountsIterations(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	var iterations atomic.Int64
	init := tf.Emplace1(func() {})
	body := tf.Emplace1(func() { iterations.Add(1) })
	cond := tf.EmplaceCondition(func() int {
		if iterations.Load() < 10 {
			return 0
		}
		return 1
	})
	done := tf.Emplace1(func() {})
	init.Precede(body)
	body.Precede(cond)
	cond.Precede(body, done)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, _ := tf.LastRunStats()
	// init + 10 body iterations + 10 condition evaluations + done.
	if rs.Tasks != 22 {
		t.Fatalf("Tasks = %d, want 22 (executions, not nodes)", rs.Tasks)
	}
	// Strong edges only: init -> body -> cond; the loop back-edge is weak.
	if rs.Span != 3 {
		t.Fatalf("Span = %d, want 3 over strong edges", rs.Span)
	}
}

func TestRunStatsCountsRetries(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	fails := 2
	tf.EmplaceErr(func() error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	}).Retry(3, 0)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, _ := tf.LastRunStats()
	if rs.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", rs.Retries)
	}
	if rs.Tasks != 3 {
		t.Fatalf("Tasks = %d, want 3 (two failures + the success)", rs.Tasks)
	}
	if rs.Errors != 0 {
		t.Fatalf("Errors = %d for a recovered run, want 0", rs.Errors)
	}
}

func TestRunStatsCountsSkipsOnFailure(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	a := tf.EmplaceErr(func() error { return errors.New("boom") })
	b := tf.Emplace1(func() { t.Error("skipped task body ran") })
	a.Precede(b)
	if err := tf.Run(); err == nil {
		t.Fatal("failing run reported no error")
	}
	rs, _ := tf.LastRunStats()
	if rs.Tasks != 1 {
		t.Fatalf("Tasks = %d, want 1 (only the failing task executed)", rs.Tasks)
	}
	if rs.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", rs.Skipped)
	}
	if !rs.Cancelled || rs.Errors != 1 {
		t.Fatalf("Cancelled=%v Errors=%d, want true/1", rs.Cancelled, rs.Errors)
	}
}

func TestRunStatsResetBetweenRuns(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	tf.Emplace(func() {}, func() {}, func() {})
	for i := 0; i < 3; i++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		rs, _ := tf.LastRunStats()
		if rs.Tasks != 3 {
			t.Fatalf("run %d: Tasks = %d, want 3 (no accumulation)", i, rs.Tasks)
		}
	}
}

func TestRunStatsSubflowTasks(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	tf.EmplaceSubflow(func(sf *Subflow) {
		sf.Emplace(func() {}, func() {}, func() {})
	})
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, _ := tf.LastRunStats()
	// The spawner plus its three spawned children.
	if rs.Tasks != 4 {
		t.Fatalf("Tasks = %d, want 4 including spawned subflow nodes", rs.Tasks)
	}
}

func TestFutureStats(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {}, func() {})
	ts[0].Precede(ts[1], ts[2])
	f := tf.Dispatch()
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	rs, ok := f.Stats()
	if !ok {
		t.Fatal("Future.Stats not ok after completion")
	}
	if rs.Tasks != 3 {
		t.Fatalf("Tasks = %d, want 3", rs.Tasks)
	}
	if rs.Span != 2 {
		t.Fatalf("Span = %d, want 2", rs.Span)
	}
	if rs.Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", rs.Wall)
	}
	tf.WaitForAll()
}

func TestFutureStatsNotReadyBeforeFinish(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	release := make(chan struct{})
	tf.Emplace1(func() { <-release })
	f := tf.Dispatch()
	if _, ok := f.Stats(); ok {
		t.Fatal("Stats ok while the topology is still running")
	}
	close(release)
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Stats(); !ok {
		t.Fatal("Stats not ok after completion")
	}
	tf.WaitForAll()
}

// TestRunZeroAllocMetricsEnabled is the enabled-path allocation gate from
// the observability work: steady-state re-runs must stay allocation-free
// with BOTH the executor's scheduler metrics and the taskflow's run stats
// (including timing) turned on. Counting is atomic adds into pre-allocated
// blocks; nothing may be minted per task.
func TestRunZeroAllocMetricsEnabled(t *testing.T) {
	e := executor.New(2, executor.WithMetrics())
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(true)
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 0; i < 63; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil { // build run state outside measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("metrics-enabled Run allocates %v objects/run, want 0", allocs)
	}
	if rs, ok := tf.LastRunStats(); !ok || rs.Tasks != 64 {
		t.Fatalf("stats lost under the alloc gate: ok=%v rs=%+v", ok, rs)
	}
	if snap, ok := e.MetricsSnapshot(); !ok || snap.Total().Executed == 0 {
		t.Fatal("executor metrics lost under the alloc gate")
	}
}

func TestStructuralSpanEmptyGraph(t *testing.T) {
	if got, err := kahn(&graph{}); got != 0 || err != nil {
		t.Fatalf("span of empty graph = %d, %v; want 0, nil", got, err)
	}
}

// TestRunLinearChainZeroAllocEverythingOn is the allocation gate for the
// README's production-monitoring configuration as a whole — scheduler
// metrics, latency histograms, flight recorder and run stats with timing,
// what the benchmark's chain_rerun_observed workload runs: the single-option
// gates do not cover what the recorders share.
func TestRunLinearChainZeroAllocEverythingOn(t *testing.T) {
	e := executor.New(2, executor.WithMetrics(), executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(0))
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(true)
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 0; i < 255; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil { // build run state outside measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fully observed Run allocates %v objects/run, want 0", allocs)
	}
	rs, _ := tf.LastRunStats()
	flows, _ := e.LatencyStats()
	if rs.Tasks != 256 || rs.Busy <= 0 || flows[0].Exec.Count != 102*256 {
		t.Fatalf("records lost under the alloc gate: %+v, %d latency records", rs, flows[0].Exec.Count)
	}
}

// TestRerunNodeStatsWithoutSweep: run stats alone no longer make a re-run
// sweep the graph, because an execution overwrites its node's per-run
// counters. Each run must read as if it had started from zeroed nodes: one
// execution per node however many runs came before, a retried node its
// attempts, and a node the run skipped nothing — not what the last run
// left there.
func TestRerunNodeStatsWithoutSweep(t *testing.T) {
	tf := New(2).CollectRunStats(true)
	defer tf.Close()
	var fail atomic.Bool
	fails := 0
	first := tf.Emplace1(func() {})
	flaky := tf.EmplaceErr(func() error {
		if fails++; fails%3 != 0 {
			return errors.New("transient")
		}
		return nil
	}).Retry(2, 0)
	gate := tf.EmplaceErr(func() error {
		if fail.Load() {
			return errors.New("boom")
		}
		return nil
	})
	last := tf.Emplace1(func() {})
	first.Precede(flaky.Precede(gate.Precede(last)))

	want := func(run string, counts ...uint64) {
		t.Helper()
		if tf.runTopo.mustSweep() {
			t.Fatalf("%s: the next run would sweep a static graph for its stats", run)
		}
		for i, n := range tf.g.nodes {
			if got := n.execCount.Load(); got != counts[i] {
				t.Fatalf("%s: node %d counts %d executions, want %d", run, i, got, counts[i])
			}
			if d := n.execDurNs.Load(); (d > 0) != (counts[i] > 0) {
				t.Fatalf("%s: node %d executed %d times in %dns", run, i, counts[i], d)
			}
		}
	}
	for run := 0; run < 3; run++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		want("clean run", 1, 3, 1, 1)
	}
	fail.Store(true)
	if err := tf.Run(); err == nil {
		t.Fatal("failing run reported no error")
	}
	want("failing run", 1, 3, 1, 0)
	fail.Store(false)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	want("run after the failure", 1, 3, 1, 1)
}
