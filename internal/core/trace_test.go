package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// collectTrace runs fn inside a StartTrace/StopTrace window on e.
func collectTrace(t *testing.T, e *executor.Executor, fn func()) executor.Trace {
	t.Helper()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	fn()
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	return tr
}

func kindCounts(tr executor.Trace) map[executor.EventKind]int {
	m := map[executor.EventKind]int{}
	for _, ev := range tr.Events {
		m[ev.Kind]++
	}
	return m
}

func TestTraceDiamondSpansAndFlowArrows(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := NewShared(e).SetName("diamond")
	ts := tf.Emplace(func() {}, func() {}, func() {}, func() {})
	names := []string{"A", "B", "C", "D"}
	for i, task := range ts {
		task.Name(names[i])
	}
	ts[0].Precede(ts[1], ts[2])
	ts[1].Precede(ts[3])
	ts[2].Precede(ts[3])

	tr := collectTrace(t, e, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})

	// Each task executes exactly once: 4 named start/end pairs carrying
	// the flow name and the run generation.
	starts := map[string]executor.TaskMeta{}
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvTaskStart {
			starts[ev.Meta.Name] = ev.Meta
		}
	}
	for _, name := range names {
		m, ok := starts[name]
		if !ok {
			t.Fatalf("no span start for task %s (got %v)", name, starts)
		}
		if m.Flow != "diamond" {
			t.Fatalf("task %s Flow = %q, want diamond", name, m.Flow)
		}
		if m.Gen != 1 {
			t.Fatalf("task %s Gen = %d, want 1 (first Run)", name, m.Gen)
		}
		if m.ID == 0 {
			t.Fatalf("task %s has zero trace ID", name)
		}
	}

	// Dependency releases: B and C are released by A, D by the later of
	// B/C — exactly one release per dependent node, along a real edge.
	edges := map[uint64][]string{ // released ID -> legal releasers
		ts[1].node.traceID: {"A"},
		ts[2].node.traceID: {"A"},
		ts[3].node.traceID: {"B", "C"},
	}
	releases := 0
	for _, ev := range tr.Events {
		if ev.Kind != executor.EvDepRelease {
			continue
		}
		releases++
		legal, ok := edges[ev.Arg]
		if !ok {
			t.Fatalf("dep release of unknown task ID %d", ev.Arg)
		}
		found := false
		for _, l := range legal {
			if ev.Meta.Name == l {
				found = true
			}
		}
		if !found {
			t.Fatalf("task %q released ID %d: not a graph edge", ev.Meta.Name, ev.Arg)
		}
	}
	if releases != 3 {
		t.Fatalf("recorded %d dep releases, want 3 (one per dependent node)", releases)
	}

	// A release happens before the released task's span starts — the
	// invariant the exporter's flow-arrow matching relies on.
	startTs := map[uint64]time.Duration{}
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvTaskStart {
			startTs[ev.Meta.ID] = ev.Ts
		}
	}
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvDepRelease {
			if st, ok := startTs[ev.Arg]; ok && ev.Ts > st {
				t.Fatalf("dep release at %v after released span start %v", ev.Ts, st)
			}
		}
	}
}

func TestTraceSecondRunBumpsGeneration(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := NewShared(e)
	tf.Emplace1(func() {}).Name("only")
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	tr := collectTrace(t, e, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvTaskStart && ev.Meta.Name == "only" {
			if ev.Meta.Gen != 2 {
				t.Fatalf("second Run Gen = %d, want 2", ev.Meta.Gen)
			}
			return
		}
	}
	t.Fatal("no span for task in second run")
}

func TestTraceSubflowSpawnJoin(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := NewShared(e)
	var ran atomic.Int64
	tf.EmplaceSubflow(func(sf *Subflow) {
		sub := sf.Emplace(func() { ran.Add(1) }, func() { ran.Add(1) })
		sub[0].Precede(sub[1])
	}).Name("spawner")

	tr := collectTrace(t, e, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if ran.Load() != 2 {
		t.Fatalf("subflow ran %d tasks, want 2", ran.Load())
	}
	kinds := kindCounts(tr)
	if kinds[executor.EvSubflowSpawn] != 1 {
		t.Fatalf("subflow spawns = %d, want 1", kinds[executor.EvSubflowSpawn])
	}
	if kinds[executor.EvSubflowJoin] != 1 {
		t.Fatalf("subflow joins = %d, want 1", kinds[executor.EvSubflowJoin])
	}
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvSubflowSpawn {
			if ev.Meta.Name != "spawner" || ev.Arg != 2 {
				t.Fatalf("spawn event meta/arg = %q/%d, want spawner/2", ev.Meta.Name, ev.Arg)
			}
		}
	}
}

func TestTraceRetryArmFire(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := NewShared(e)
	var attempts atomic.Int64
	tf.EmplaceErr(func() error {
		if attempts.Add(1) < 3 {
			return errors.New("flaky")
		}
		return nil
	}).Name("flaky").Retry(5, 0)

	tr := collectTrace(t, e, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	kinds := kindCounts(tr)
	if kinds[executor.EvRetryArm] != 2 || kinds[executor.EvRetryFire] != 2 {
		t.Fatalf("retry arm/fire = %d/%d, want 2/2", kinds[executor.EvRetryArm], kinds[executor.EvRetryFire])
	}
}

func TestTraceCancelAndSkip(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := NewShared(e)
	boom := tf.EmplaceErr(func() error { return errors.New("boom") }).Name("boom")
	boom.Precede(tf.Emplace1(func() {}).Name("skipped"))

	tr := collectTrace(t, e, func() {
		if err := tf.Run(); err == nil {
			t.Fatal("run succeeded despite failing task")
		}
	})
	kinds := kindCounts(tr)
	if kinds[executor.EvCancel] != 1 {
		t.Fatalf("cancel events = %d, want 1", kinds[executor.EvCancel])
	}
	if kinds[executor.EvSkip] != 1 {
		t.Fatalf("skip events = %d, want 1", kinds[executor.EvSkip])
	}
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvSkip && ev.Meta.Name != "skipped" {
			t.Fatalf("skip event names %q, want skipped", ev.Meta.Name)
		}
	}
}

func TestHotTasksRanking(t *testing.T) {
	tf := New(2).CollectRunStats(true)
	defer tf.Close()
	spin := func(d time.Duration) func() {
		return func() {
			for end := time.Now().Add(d); time.Now().Before(end); {
			}
		}
	}
	// The gaps must exceed a scheduler quantum: on a 2-vCPU host a 1 ms
	// spinner that loses its CPU once measures ~5 ms of wall time.
	tf.Emplace1(spin(40 * time.Millisecond)).Name("heavy")
	tf.Emplace1(spin(15 * time.Millisecond)).Name("medium")
	for i := 0; i < 6; i++ {
		tf.Emplace1(spin(time.Millisecond))
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, ok := tf.LastRunStats()
	if !ok {
		t.Fatal("no run stats")
	}
	if len(rs.HotTasks) != hotTaskK {
		t.Fatalf("HotTasks has %d entries, want %d", len(rs.HotTasks), hotTaskK)
	}
	if rs.HotTasks[0].Name != "heavy" {
		t.Fatalf("hottest task = %q, want heavy", rs.HotTasks[0].Name)
	}
	if rs.HotTasks[1].Name != "medium" {
		t.Fatalf("second task = %q, want medium", rs.HotTasks[1].Name)
	}
	for i := 1; i < len(rs.HotTasks); i++ {
		if rs.HotTasks[i].Total > rs.HotTasks[i-1].Total {
			t.Fatal("HotTasks not sorted by self time")
		}
	}
	if rs.HotTasks[0].Count != 1 {
		t.Fatalf("heavy Count = %d, want 1", rs.HotTasks[0].Count)
	}

	// The annotated DOT dump leads with the same ranking.
	var sb strings.Builder
	if err := tf.DumpAnnotated(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	if !strings.Contains(dot, "// hot tasks (top 5 by self time):") ||
		!strings.Contains(dot, "1. heavy") {
		t.Fatalf("annotated dump lacks hot-task ranking:\n%s", dot)
	}
}

func TestHotTasksEmptyWithoutTiming(t *testing.T) {
	tf := New(2).CollectRunStats(false)
	defer tf.Close()
	tf.Emplace1(func() {})
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	rs, ok := tf.LastRunStats()
	if !ok {
		t.Fatal("no run stats")
	}
	if len(rs.HotTasks) != 0 {
		t.Fatalf("HotTasks populated without timing: %v", rs.HotTasks)
	}
	var sb strings.Builder
	if err := tf.DumpAnnotated(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "hot tasks") {
		t.Fatal("count-only annotated dump emitted a hot-task ranking")
	}
}

// buildChain emplaces a 64-node linear chain on tf.
func buildChain(tf *Taskflow, n *int64) {
	prev := tf.Emplace1(func() { *n++ })
	for i := 0; i < 63; i++ {
		next := tf.Emplace1(func() { *n++ })
		prev.Precede(next)
		prev = next
	}
}

// TestRunZeroAllocTracingArmedIdle gates the tracing disabled path: an
// executor built WithTracing but with no active capture must keep the
// linear-chain steady state at zero allocations per run — arming tracing
// costs one atomic flag load per instrumentation point, nothing more.
func TestRunZeroAllocTracingArmedIdle(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<12))
	defer e.Shutdown()
	tf := NewShared(e)
	var n int64
	buildChain(tf, &n)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("armed-idle tracing Run allocates %v objects/run, want 0", allocs)
	}
}

// TestRunTracingActiveAllocBound gates the tracing enabled path: with a
// capture recording every span and scheduler event into the pre-allocated
// rings, a linear-chain run must stay within 2 allocations per run (in
// practice zero: ring slots are written in place and TaskMeta is carried
// by value).
func TestRunTracingActiveAllocBound(t *testing.T) {
	e := executor.New(2, executor.WithTracing(1<<16))
	defer e.Shutdown()
	tf := NewShared(e)
	var n int64
	buildChain(tf, &n)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if allocs > 2 {
		t.Fatalf("active tracing Run allocates %v objects/run, want <= 2", allocs)
	}
	if len(tr.Events) == 0 {
		t.Fatal("active capture recorded nothing")
	}
}

// TestTraceCaptureHoldsFinishedRun: a capture stopped the moment Run
// returns holds every event of the run — each task's start, its releases
// and its end — because workers settle before they let the waiter go; no
// event is left behind for a later publication to carry.
func TestTraceCaptureHoldsFinishedRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := executor.New(workers, executor.WithTracing(1<<13))
		tf := NewShared(e)
		src, sink := tf.Emplace1(func() {}), tf.Emplace1(func() {})
		for i := 0; i < 100; i++ {
			src.Precede(tf.Emplace1(func() {}).Precede(sink))
		}
		for run := 0; run < 5; run++ {
			tr := collectTrace(t, e, func() {
				if err := tf.Run(); err != nil {
					t.Fatal(err)
				}
			})
			got := kindCounts(tr)
			if tr.Dropped != 0 || got[executor.EvTaskStart] != 102 || got[executor.EvTaskEnd] != 102 ||
				got[executor.EvDepRelease] != 101 {
				t.Fatalf("W=%d run %d: capture holds %d starts, %d ends, %d releases (dropped %d), want 102/102/101",
					workers, run, got[executor.EvTaskStart], got[executor.EvTaskEnd], got[executor.EvDepRelease], tr.Dropped)
			}
		}
		e.Shutdown()
	}
}
