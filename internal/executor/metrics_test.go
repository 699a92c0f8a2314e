package executor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// drain submits n one-shot tasks from outside the pool and waits for all of
// them to execute.
func drain(t *testing.T, e *Executor, n int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := e.Submit(NewTask(func(Context) { wg.Done() })); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestMetricsDisabledByDefault(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	if e.MetricsEnabled() {
		t.Fatal("metrics enabled without WithMetrics")
	}
	if _, ok := e.MetricsSnapshot(); ok {
		t.Fatal("MetricsSnapshot ok on a metrics-disabled executor")
	}
}

func TestMetricsCountAndReconcile(t *testing.T) {
	e := New(4, WithMetrics())
	drain(t, e, 500)

	// Fan-out from inside the pool so worker deques see pushes too.
	var wg sync.WaitGroup
	wg.Add(1)
	err := e.Submit(NewTask(func(ctx Context) {
		var inner atomic.Int64
		const kids = 200
		inner.Store(kids)
		for i := 0; i < kids; i++ {
			ctx.Submit(NewTask(func(Context) {
				if inner.Add(-1) == 0 {
					wg.Done()
				}
			}))
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	e.Shutdown()

	snap, ok := e.MetricsSnapshot()
	if !ok {
		t.Fatal("MetricsSnapshot not ok with WithMetrics")
	}
	total := snap.Total()
	if got := total.Executed; got != 701 {
		t.Fatalf("executed = %d, want 701", got)
	}
	if snap.Injection.Pushes != 501 {
		t.Fatalf("injection pushes = %d, want 501", snap.Injection.Pushes)
	}
	// At least the 200 fan-out children are pushed on worker deques; batch
	// steals and batch injection drains re-push their extras onto the
	// thief's deque, so the total may be higher (each re-push is balanced
	// by a pop or steal, which Reconcile checks below).
	if total.Pushes < 200 {
		t.Fatalf("deque pushes = %d, want >= 200", total.Pushes)
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if total.QueueDepth != 0 || snap.Injection.Depth != 0 {
		t.Fatalf("queues not drained in snapshot: depth=%d inj=%d",
			total.QueueDepth, snap.Injection.Depth)
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("snapshot has %d workers, want 4", len(snap.Workers))
	}
}

func TestMetricsCountParksAndWakes(t *testing.T) {
	e := New(2, WithMetrics(), withSpin(0)) // park immediately when idle
	defer e.Shutdown()
	for round := 0; round < 20; round++ {
		drain(t, e, 4)
	}
	snap, _ := e.MetricsSnapshot()
	total := snap.Total()
	if total.Parks == 0 {
		t.Fatal("no parks recorded despite withSpin(0) idle periods")
	}
	if snap.PreciseWakes == 0 {
		t.Fatal("no precise wakes recorded despite external submissions")
	}
}

func TestMetricsStealAccounting(t *testing.T) {
	// A single long fan-out from one worker forces the others to steal.
	e := New(4, WithMetrics())
	var wg sync.WaitGroup
	const kids = 2000
	wg.Add(kids)
	err := e.Submit(NewTask(func(ctx Context) {
		batch := make([]*Runnable, kids)
		for i := range batch {
			batch[i] = NewTask(func(Context) {
				for j := 0; j < 100; j++ {
					_ = j * j
				}
				wg.Done()
			})
		}
		ctx.SubmitBatch(batch)
	}))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	e.Shutdown()
	snap, _ := e.MetricsSnapshot()
	total := snap.Total()
	if total.StolenTasks != total.StolenFrom {
		t.Fatalf("thief-side stolen tasks %d != victim-side %d", total.StolenTasks, total.StolenFrom)
	}
	if total.StolenTasks < total.Steals {
		t.Fatalf("stolen tasks %d < steal operations %d", total.StolenTasks, total.Steals)
	}
	if total.StealBatches > total.Steals {
		t.Fatalf("steal batches %d > steal operations %d", total.StealBatches, total.Steals)
	}
	if total.StealAttempts < total.Steals {
		t.Fatalf("steal attempts %d < steals %d", total.StealAttempts, total.Steals)
	}
	if total.MaxQueueDepth == 0 {
		t.Fatal("max queue depth watermark never raised by a 2000-task fan-out")
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsBatchDrainAccounting drives wide external bursts through a
// small pool so the batch injection drain fires, and checks the
// operation/task split the batch counters promise.
func TestMetricsBatchDrainAccounting(t *testing.T) {
	e := New(2, WithMetrics(), withSpin(0))
	const rounds, burst = 10, 256
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		wg.Add(burst)
		r := NewTask(func(Context) { wg.Done() })
		rs := make([]*Runnable, burst)
		for i := range rs {
			rs[i] = r
		}
		if err := e.SubmitBatch(rs); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	e.Shutdown()
	snap, _ := e.MetricsSnapshot()
	total := snap.Total()
	if snap.Injection.Pushes != rounds*burst {
		t.Fatalf("injection pushes = %d, want %d", snap.Injection.Pushes, rounds*burst)
	}
	if total.InjectionDrainedTasks != snap.Injection.Pushes {
		t.Fatalf("drained tasks %d != pushes %d", total.InjectionDrainedTasks, snap.Injection.Pushes)
	}
	// A 256-task burst against a 2-worker pool must produce at least one
	// multi-task drain, so the task count strictly exceeds the op count.
	if total.InjectionDrainedTasks <= total.InjectionDrains {
		t.Fatalf("no batch drains: drained tasks %d, drain ops %d",
			total.InjectionDrainedTasks, total.InjectionDrains)
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSnapshotWhileRunning exercises concurrent snapshotting under
// the race detector: readers must never race with the counting hot path.
func TestMetricsSnapshotWhileRunning(t *testing.T) {
	e := New(4, WithMetrics())
	defer e.Shutdown()
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap, ok := e.MetricsSnapshot(); ok {
				_ = snap.Total()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		drain(t, e, 20)
	}
	close(stop)
	rg.Wait()
}
