package executor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// notifState unpacks the notifier state word for assertions.
func notifState(no *notifier) (stackTop, waiters, signals uint64) {
	s := no.state.Load()
	return s & notifStackMask,
		(s & notifWaiterMask) >> notifWaiterShift,
		(s & notifSignalMask) >> notifSignalShift
}

// A notify racing into the prewait/commit window must bank a signal that
// commitWait consumes without parking — the interleaving a naive
// check-then-park loop loses.
func TestNotifierSignalBanking(t *testing.T) {
	no := newNotifier(2)
	no.prewait()
	if !no.notifyOne() {
		t.Fatal("notifyOne saw no waiter after prewait")
	}
	if _, _, signals := notifState(no); signals != 1 {
		t.Fatalf("signals = %d after notify into prewait window, want 1", signals)
	}
	if no.commitWait(0) {
		t.Fatal("commitWait parked despite a banked signal")
	}
	if stack, waiters, signals := notifState(no); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after banked-signal commit: stack=%#x waiters=%d signals=%d",
			stack, waiters, signals)
	}
}

// cancelWait must consume the signal addressed to it (when every prewaiter
// has one banked), leaving no stale signal to falsify a later commitWait.
func TestNotifierCancelConsumesSignal(t *testing.T) {
	no := newNotifier(2)
	no.prewait()
	no.notifyOne() // banks one signal for the one prewaiter
	no.cancelWait()
	if stack, waiters, signals := notifState(no); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after cancel: stack=%#x waiters=%d signals=%d",
			stack, waiters, signals)
	}
	if no.notifyOne() {
		t.Fatal("notifyOne woke someone on an idle notifier")
	}
}

// The producers' fast path: notify on an idle notifier is a single load
// that changes nothing.
func TestNotifierNotifyIdleFastPath(t *testing.T) {
	no := newNotifier(4)
	before := no.state.Load()
	if no.notifyOne() || no.notifyAll() {
		t.Fatal("notify reported a wake on an idle notifier")
	}
	if after := no.state.Load(); after != before {
		t.Fatalf("idle notify mutated state: %#x -> %#x", before, after)
	}
}

// parkedCount walks the intrusive stack. Safe only while every pusher is
// parked (the stack is then stable).
func parkedCount(no *notifier) int {
	n := 0
	top := no.state.Load() & notifStackMask
	for top != notifStackMask {
		n++
		top = no.waiters[top].next.Load() & notifStackMask
	}
	return n
}

// notifyAll must capture and unpark the entire waiter stack in one CAS.
func TestNotifierNotifyAllUnparksChain(t *testing.T) {
	const n = 4
	no := newNotifier(n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			no.prewait()
			no.commitWait(id)
		}(id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for parkedCount(no) != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters parked", parkedCount(no), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !no.notifyAll() {
		t.Fatal("notifyAll found nobody despite a full stack")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("notifyAll left waiters parked")
	}
	if stack, waiters, signals := notifState(no); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after notifyAll: stack=%#x waiters=%d signals=%d",
			stack, waiters, signals)
	}
}

// TestNotifierLitmusNoLostWakeup is the litmus for the Dekker-style
// publish/notify protocol, run under -race in CI: producers publish work
// then notify; consumers re-check work after prewait. If any interleaving
// lost a wakeup, a consumer would park forever with work outstanding and
// the consumed count would stall short of the total.
func TestNotifierLitmusNoLostWakeup(t *testing.T) {
	const (
		consumers   = 4
		producers   = 4
		perProducer = 2000
	)
	no := newNotifier(consumers)
	var work, consumed atomic.Int64
	var stop atomic.Bool
	const total = int64(producers * perProducer)

	var wg sync.WaitGroup
	for id := 0; id < consumers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				if n := work.Load(); n > 0 {
					if work.CompareAndSwap(n, n-1) {
						consumed.Add(1)
					}
					continue
				}
				if stop.Load() {
					return
				}
				no.prewait()
				if work.Load() > 0 || stop.Load() { // re-check AFTER announcing
					no.cancelWait()
					continue
				}
				no.commitWait(id)
			}
		}(id)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				work.Add(1)    // publish...
				no.notifyOne() // ...then notify
				if i%64 == 0 {
					runtime.Gosched() // shuffle interleavings on few cores
				}
			}
		}()
	}

	deadline := time.Now().Add(60 * time.Second)
	for consumed.Load() != total {
		if time.Now().After(deadline) {
			t.Fatalf("lost wakeup or stuck consumer: consumed %d of %d (parked=%d)",
				consumed.Load(), total, parkedCount(no))
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	no.notifyAll()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown notifyAll left a consumer stuck")
	}
}

// Each injection shard must be FIFO: interleaved pushes and batch pops
// yield tasks in exact submission order.
func TestInjectionShardFIFO(t *testing.T) {
	var s injShard
	s.ring.init(injInitialCap)
	tasks := make([]*Runnable, 500)
	for i := range tasks {
		tasks[i] = NewTask(func(Context) {})
	}
	dst := make([]*Runnable, 7)
	pushed, popped := 0, 0
	for popped < len(tasks) {
		for k := 0; k < 3 && pushed < len(tasks); k++ {
			s.ring.pushBatch(tasks[pushed : pushed+1])
			pushed++
		}
		n := s.ring.popN(dst)
		for i := 0; i < n; i++ {
			if dst[i] != tasks[popped] {
				t.Fatalf("pop %d returned task %p, want %p (FIFO violated)", popped, dst[i], tasks[popped])
			}
			popped++
		}
	}
}

// Tasks hashed across multiple shards by concurrent producers must each
// execute exactly once, and the per-shard counters must account for every
// push and drain.
func TestInjectionShardsExactlyOnce(t *testing.T) {
	e := New(16, WithMetrics(), withSpin(0))
	if len(e.injShards) < 2 {
		t.Fatalf("16 workers built %d injection shards, want >= 2", len(e.injShards))
	}
	const producers = 4
	const perProducer = 200
	const total = producers * perProducer
	ran := make([]atomic.Int64, total)
	var done atomic.Int64
	tasks := make([]*Runnable, total)
	for i := range tasks {
		i := i
		tasks[i] = NewTask(func(Context) {
			ran[i].Add(1)
			done.Add(1)
		})
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p * perProducer; i < (p+1)*perProducer; i++ {
				if err := e.Submit(tasks[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	deadline := time.Now().Add(60 * time.Second)
	for done.Load() != total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d tasks ran", done.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times, want exactly once", i, n)
		}
	}
	e.Shutdown()
	snap, _ := e.MetricsSnapshot()
	var shardPushes uint64
	for _, sh := range snap.Shards {
		shardPushes += sh.Pushes
	}
	if shardPushes != total {
		t.Fatalf("shard pushes sum to %d, want %d", shardPushes, total)
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// A full park/unpark cycle through the armed eventcount must not allocate:
// external submit -> wake -> run -> re-park, measured end to end.
func TestParkUnparkCycleZeroAlloc(t *testing.T) {
	e := New(1, withSpin(0), withWakeProbability(0))
	defer e.Shutdown()
	done := make(chan struct{})
	task := NewTask(func(Context) { done <- struct{}{} })
	run := func() {
		e.Submit(task)
		<-done
		// Wait until the worker is back inside the park protocol so every
		// measured iteration includes a real unpark.
		for e.idlerCount.Load() != 1 {
			runtime.Gosched()
		}
	}
	run() // settle rings, sudog caches, parked state
	if allocs := testing.AllocsPerRun(100, run); allocs > 0.5 {
		t.Fatalf("park/unpark cycle allocates %v objects per round, want 0", allocs)
	}
}

// Submitting prebuilt tasks through the sharded injection queue must not
// allocate in steady state, shards and wakes included.
func TestShardedInjectionSubmitZeroAlloc(t *testing.T) {
	e := New(16, withSpin(0), withWakeProbability(0))
	defer e.Shutdown()
	if len(e.injShards) < 2 {
		t.Fatalf("16 workers built %d injection shards, want >= 2", len(e.injShards))
	}
	const fan = 8
	var remaining atomic.Int64
	done := make(chan struct{})
	tasks := make([]*Runnable, fan)
	for i := range tasks {
		tasks[i] = NewTask(func(Context) {
			if remaining.Add(-1) == 0 {
				done <- struct{}{}
			}
		})
	}
	run := func() {
		remaining.Store(fan)
		for _, r := range tasks {
			e.Submit(r)
		}
		<-done
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs > 1 {
		t.Fatalf("sharded submit allocates %v objects per %d-task round, want ~0", allocs, fan)
	}
}
