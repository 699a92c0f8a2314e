package core

// Randomized-DAG property tests: the honesty layer of the observability
// work. For random graphs (internal/graphgen, the paper's degree-bounded
// generator) across executor sizes, a run must execute every task exactly
// once, the taskflow's RunStats must agree with the graph, and the
// executor's scheduler counters must reconcile — every task the deque
// layer accepted is accounted for by pops, steals, or injection drains.
// CI runs this package under -race.

import (
	"fmt"
	"testing"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/graphgen"
)

func TestPropertyRandomDAGExactlyOnceAndReconciled(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 17, 200} {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("w%d/n%d/seed%d", workers, n, seed)
				t.Run(name, func(t *testing.T) {
					checkRandomDAG(t, workers, n, seed)
				})
			}
		}
	}
}

// TestPropertyRandomDAGReconciledRecorded is the same sweep on pools with
// the flight recorder on, whose workers batch their continuations' cache
// hits: Executed, derived from them, must still equal the bodies run.
func TestPropertyRandomDAGReconciledRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{17, 200} {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("w%d/n%d/seed%d", workers, n, seed)
				t.Run(name, func(t *testing.T) {
					checkRandomDAG(t, workers, n, seed, executor.WithFlightRecorder(0))
				})
			}
		}
	}
}

func checkRandomDAG(t *testing.T, workers, n int, seed int64, opts ...executor.Option) {
	d := graphgen.Random(n, graphgen.Config{Seed: seed})
	e := executor.New(workers, append(opts, executor.WithMetrics())...)
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(false)

	execCounts := make([]int32, n)
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = tf.Emplace1(func() { execCounts[i]++ })
	}
	for u := 0; u < n; u++ {
		d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
	}

	const runs = 3
	for run := 0; run < runs; run++ {
		if err := tf.Run(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		// Exactly-once: every node executed once more than before. The
		// counters are plain ints — the run's completion orders all task
		// bodies before Run returns, so a torn read here would be a real
		// happens-before bug and -race would flag it.
		for i, c := range execCounts {
			if int(c) != run+1 {
				t.Fatalf("run %d: node %d executed %d times, want %d", run, i, c, run+1)
			}
		}
		rs, ok := tf.LastRunStats()
		if !ok {
			t.Fatal("LastRunStats not ok")
		}
		if rs.Tasks != int64(n) {
			t.Fatalf("run %d: RunStats.Tasks = %d, want graph size %d", run, rs.Tasks, n)
		}
		if rs.Skipped != 0 || rs.Retries != 0 || rs.Errors != 0 || rs.Cancelled {
			t.Fatalf("run %d: clean run reported failures: %+v", run, rs)
		}
	}

	// Metrics reconciliation at quiescence: pushes = pops + steals and
	// injection pushes = injection drains, with every execution accounted.
	snap, ok := e.MetricsSnapshot()
	if !ok {
		t.Fatal("MetricsSnapshot not ok with WithMetrics")
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatalf("metrics reconciliation failed: %v", err)
	}
	if got, want := snap.Total().Executed, uint64(n*runs); got != want {
		t.Fatalf("executor executed %d tasks, want %d", got, want)
	}
}

// TestPropertyRandomDAGDispatch covers the one-shot Dispatch path with the
// same properties, including Future.Stats.
func TestPropertyRandomDAGDispatch(t *testing.T) {
	for _, workers := range []int{2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			const n = 150
			d := graphgen.Random(n, graphgen.Config{Seed: 42})
			e := executor.New(workers, executor.WithMetrics())
			defer e.Shutdown()
			tf := NewShared(e).CollectRunStats(false)
			execCounts := make([]int32, n)
			tasks := make([]Task, n)
			for i := 0; i < n; i++ {
				i := i
				tasks[i] = tf.Emplace1(func() { execCounts[i]++ })
			}
			for u := 0; u < n; u++ {
				d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
			}
			f := tf.Dispatch()
			if err := f.Get(); err != nil {
				t.Fatal(err)
			}
			for i, c := range execCounts {
				if c != 1 {
					t.Fatalf("node %d executed %d times, want 1", i, c)
				}
			}
			rs, ok := f.Stats()
			if !ok {
				t.Fatal("Future.Stats not ok")
			}
			if rs.Tasks != n {
				t.Fatalf("RunStats.Tasks = %d, want %d", rs.Tasks, n)
			}
			snap, _ := e.MetricsSnapshot()
			if err := snap.Reconcile(); err != nil {
				t.Fatal(err)
			}
			tf.WaitForAll()
		})
	}
}
