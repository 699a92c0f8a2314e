package executor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCounter blocks until the counter reaches want or the timeout expires.
func waitCounter(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want %d (timeout)", c.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSubmitRunsAllTasks(t *testing.T) {
	e := New(4)
	defer e.Shutdown()
	var n atomic.Int64
	const total = 10000
	for i := 0; i < total; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
	}
	waitCounter(t, &n, total)
}

func TestSubmitBatch(t *testing.T) {
	e := New(3)
	defer e.Shutdown()
	var n atomic.Int64
	tasks := make([]*Runnable, 500)
	for i := range tasks {
		tasks[i] = NewTask(func(Context) { n.Add(1) })
	}
	e.SubmitBatch(tasks)
	waitCounter(t, &n, 500)
}

func TestSubmitBatchEmpty(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	e.SubmitBatch(nil) // must not panic or wake anything
}

// An intrusive task object: implements Runnable and carries its own slot,
// the way graph nodes do. Submitting &task.self never allocates.
type intrusiveTask struct {
	fn   func(ctx Context, t *intrusiveTask)
	self Runnable
}

func newIntrusive(fn func(ctx Context, t *intrusiveTask)) *intrusiveTask {
	t := &intrusiveTask{fn: fn}
	t.self = t
	return t
}

func (t *intrusiveTask) Run(ctx Context)  { t.fn(ctx, t) }
func (*intrusiveTask) Describe() TaskMeta { return TaskMeta{} }

func TestIntrusiveResubmit(t *testing.T) {
	// One pre-built task object resubmits itself 1000 times.
	e := New(2)
	defer e.Shutdown()
	var n atomic.Int64
	task := newIntrusive(func(ctx Context, task *intrusiveTask) {
		if n.Add(1) < 1000 {
			ctx.Submit(&task.self)
		}
	})
	e.Submit(&task.self)
	waitCounter(t, &n, 1000)
}

func TestNestedSubmitFromTask(t *testing.T) {
	e := New(4)
	defer e.Shutdown()
	var n atomic.Int64
	var spawn func(depth int) *Runnable
	spawn = func(depth int) *Runnable {
		return NewTask(func(ctx Context) {
			n.Add(1)
			if depth > 0 {
				ctx.Submit(spawn(depth - 1))
				ctx.Submit(spawn(depth - 1))
			}
		})
	}
	e.Submit(spawn(10)) // 2^11 - 1 tasks
	waitCounter(t, &n, 1<<11-1)
}

func TestSubmitCachedLinearChain(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	var n atomic.Int64
	var order []int
	var mu sync.Mutex
	var link func(i int) *Runnable
	link = func(i int) *Runnable {
		return NewTask(func(ctx Context) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			n.Add(1)
			if i < 99 {
				ctx.SubmitCached(link(i + 1))
			}
		})
	}
	e.Submit(link(0))
	waitCounter(t, &n, 100)
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; cached chain must run in order", i, v)
		}
	}
}

func TestContextSubmitBatch(t *testing.T) {
	e := New(4)
	defer e.Shutdown()
	var n atomic.Int64
	const fanout = 128
	e.Submit(NewTask(func(ctx Context) {
		batch := make([]*Runnable, fanout)
		for i := range batch {
			batch[i] = NewTask(func(Context) { n.Add(1) })
		}
		ctx.SubmitBatch(batch)
		ctx.SubmitBatch(nil) // no-op
	}))
	waitCounter(t, &n, fanout)
}

func TestWorkerID(t *testing.T) {
	e := New(3)
	defer e.Shutdown()
	seen := make(chan int, 100)
	for i := 0; i < 100; i++ {
		e.Submit(NewTask(func(ctx Context) {
			if ctx.Executor() != e {
				t.Error("ctx.Executor() mismatch")
			}
			seen <- ctx.WorkerID()
		}))
	}
	for i := 0; i < 100; i++ {
		id := <-seen
		if id < 0 || id >= 3 {
			t.Fatalf("WorkerID() = %d, want in [0,3)", id)
		}
	}
}

func TestNumWorkersDefault(t *testing.T) {
	e := New(0)
	defer e.Shutdown()
	if e.NumWorkers() < 1 {
		t.Fatalf("NumWorkers() = %d, want >= 1", e.NumWorkers())
	}
	e2 := New(7)
	defer e2.Shutdown()
	if e2.NumWorkers() != 7 {
		t.Fatalf("NumWorkers() = %d, want 7", e2.NumWorkers())
	}
}

func TestShutdownIdempotent(t *testing.T) {
	e := New(2)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
	}
	waitCounter(t, &n, 100)
	e.Shutdown()
	e.Shutdown() // second call must not hang or panic
}

func TestManyProducers(t *testing.T) {
	e := New(4)
	defer e.Shutdown()
	var n atomic.Int64
	var wg sync.WaitGroup
	const producers = 8
	const each = 2000
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.Submit(NewTask(func(Context) { n.Add(1) }))
			}
		}()
	}
	wg.Wait()
	waitCounter(t, &n, producers*each)
}

func TestStealingHappens(t *testing.T) {
	// One blocked producer fans out two children that rendezvous with
	// each other: they can only complete by running concurrently on two
	// different workers, both of which must have stolen from the
	// producer's local queue.
	e := New(4)
	defer e.Shutdown()
	var n atomic.Int64
	workers := make(map[int]bool)
	var mu sync.Mutex
	block := make(chan struct{})
	chA, chB := make(chan struct{}), make(chan struct{})
	e.Submit(NewTask(func(ctx Context) {
		ctx.Submit(NewTask(func(c Context) {
			mu.Lock()
			workers[c.WorkerID()] = true
			mu.Unlock()
			close(chA)
			<-chB
			n.Add(1)
		}))
		ctx.Submit(NewTask(func(c Context) {
			mu.Lock()
			workers[c.WorkerID()] = true
			mu.Unlock()
			close(chB)
			<-chA
			n.Add(1)
		}))
		<-block // keep the producer busy so others must steal
	}))
	waitCounter(t, &n, 2)
	close(block)
	mu.Lock()
	defer mu.Unlock()
	if len(workers) < 2 {
		t.Fatalf("rendezvous children ran on %d distinct workers", len(workers))
	}
}

func TestIdleWakeupLatency(t *testing.T) {
	// After a quiet period (workers parked), a new submission must still run.
	e := New(4)
	defer e.Shutdown()
	var n atomic.Int64
	e.Submit(NewTask(func(Context) { n.Add(1) }))
	waitCounter(t, &n, 1)
	time.Sleep(50 * time.Millisecond) // let workers park
	for i := 0; i < 10; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
		waitCounter(t, &n, int64(2+i))
	}
}

// parkAll waits until all workers of e are parked on the eventcount's
// waiter stack.
func parkAll(t *testing.T, e *Executor) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parkedCount(e.ec) != e.NumWorkers() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers parked (timeout)", parkedCount(e.ec), e.NumWorkers())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// wake must wake exactly min(n, parked) workers — no over-waking.
func TestWakeUpToExact(t *testing.T) {
	e := New(4, withSpin(0))
	defer e.Shutdown()
	parkAll(t, e)

	// More parked workers than the request: wake exactly n.
	if woke := e.wake(2); woke != 2 {
		t.Fatalf("wake(2) woke %d with 4 parked, want 2", woke)
	}
	// Fewer parked workers than the request: wake only what exists. The
	// two woken workers find no work and re-park eventually, so bound the
	// remaining count instead of racing them.
	if woke := e.wake(100); woke > 4 {
		t.Fatalf("wake(100) woke %d, want <= 4", woke)
	}
	if woke := e.wake(0); woke != 0 {
		t.Fatalf("wake(0) woke %d, want 0", woke)
	}
}

// SubmitBatch must not attempt more wakes than there are parked workers:
// with nobody waiting the batch publication is the only cost.
func TestSubmitBatchNoIdlersNoWake(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	// Occupy both workers so nobody waits on the eventcount.
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		e.Submit(NewTask(func(Context) {
			started <- struct{}{}
			<-release
		}))
	}
	<-started
	<-started
	if got := e.wake(100); got != 0 {
		t.Fatalf("wake with nobody waiting woke %d, want 0", got)
	}
	var n atomic.Int64
	batch := make([]*Runnable, 50)
	for i := range batch {
		batch[i] = NewTask(func(Context) { n.Add(1) })
	}
	e.SubmitBatch(batch) // must not block or spin on failed wakes
	close(release)
	waitCounter(t, &n, 50)
}

// The injection queue must recycle its storage: a million-task
// submit/drain cycle with a bounded backlog must keep the ring capacity
// bounded (the old append/re-slice queue kept growing its backing array
// and retained popped elements until the next re-allocation).
func TestInjectionCapacityBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-task soak")
	}
	e := New(1)
	defer e.Shutdown()
	const total = 1_000_000
	const window = 1024
	var done atomic.Int64
	r := NewTask(func(Context) { done.Add(1) })
	for i := 0; i < total; i++ {
		e.Submit(r)
		// Throttle the producer so the backlog stays within one window —
		// the steady-state shape of a long-running service.
		if backlog := int64(i+1) - done.Load(); backlog > window {
			for int64(i+1)-done.Load() > window/2 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	waitCounter(t, &done, total)
	if c := e.injCap(); c > 8*window {
		t.Fatalf("injection ring capacity = %d after %d tasks with backlog <= %d, want bounded", c, total, window)
	}
}

// A burst grows the ring; draining it shrinks it back toward the floor.
func TestInjectionShrinksAfterBurst(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	// Pin the only worker inside a task so the burst piles up in the
	// injection ring instead of draining as it is produced.
	gate := make(chan struct{})
	started := make(chan struct{})
	e.Submit(NewTask(func(Context) { close(started); <-gate }))
	<-started

	const burst = 1 << 15
	var done atomic.Int64
	r := NewTask(func(Context) { done.Add(1) })
	rs := make([]*Runnable, burst)
	for i := range rs {
		rs[i] = r
	}
	e.SubmitBatch(rs)
	if c := e.injCap(); c < burst {
		t.Fatalf("injection ring capacity = %d after burst of %d", c, burst)
	}
	close(gate)
	waitCounter(t, &done, burst)
	if c := e.injCap(); c > injShrinkCap {
		t.Fatalf("injection ring capacity = %d after drain, want <= %d", c, injShrinkCap)
	}
}

// Steady-state execution of pre-built tasks must not allocate: an intrusive
// task resubmitting itself through the local deque, measured end to end.
func TestIntrusiveResubmitZeroAlloc(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	done := make(chan struct{})
	var rounds int
	task := newIntrusive(func(ctx Context, task *intrusiveTask) {
		rounds--
		if rounds <= 0 {
			done <- struct{}{}
			return
		}
		ctx.Submit(&task.self)
	})
	run := func() {
		rounds = 10000
		e.Submit(&task.self)
		<-done
	}
	run() // warm up (queues grow, worker parks settle)
	allocs := testing.AllocsPerRun(10, run)
	// Each measured run performs 10000 scheduling round trips. Allow the
	// harness a few stray allocations (timer goroutines etc.) but fail if
	// the scheduler allocates per task.
	if allocs > 10 {
		t.Fatalf("steady-state resubmit allocates %v objects per 10000 tasks, want ~0", allocs)
	}
}

func BenchmarkSubmitThroughput(b *testing.B) {
	e := New(0)
	defer e.Shutdown()
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
	}
	for n.Load() != int64(b.N) {
		time.Sleep(10 * time.Microsecond)
	}
}

func BenchmarkLinearChainCached(b *testing.B) {
	e := New(0)
	defer e.Shutdown()
	done := make(chan struct{})
	remaining := 0
	task := newIntrusive(func(ctx Context, task *intrusiveTask) {
		remaining--
		if remaining <= 0 {
			done <- struct{}{}
			return
		}
		ctx.SubmitCached(&task.self)
	})
	b.ReportAllocs()
	b.ResetTimer()
	remaining = b.N
	e.Submit(&task.self)
	<-done
}

// A worker scrubs its deque on the way to sleep: once the pool has parked,
// no deque slot keeps a finished task reachable, so a collection frees them
// while the executor is still up.
func TestParkScrubsDeque(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	const tasks = 300 // past the 256-slot ring, so the scrub range is clamped too
	var ran, freed atomic.Int64
	if err := e.Submit(NewTask(func(ctx Context) {
		for i := 0; i < tasks; i++ {
			r := NewTask(func(Context) { ran.Add(1) })
			runtime.SetFinalizer(r, func(*Runnable) { freed.Add(1) })
			ctx.Submit(r) // onto the worker's own deque; the other worker steals
		}
	})); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &ran, tasks)
	parkAll(t, e)
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() != tasks {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finished tasks were freed while the pool is parked", freed.Load(), tasks)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
