package executor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// notifState unpacks the eventcount state word for assertions.
func notifState(ec *Eventcount) (stackTop, waiters, signals uint64) {
	s := ec.state.Load()
	return s & notifStackMask,
		(s & notifWaiterMask) >> notifWaiterShift,
		(s & notifSignalMask) >> notifSignalShift
}

// parker drives an eventcount the way the worker pool does: one buffered(1)
// park channel per slot, received on when CommitWait says park and sent to
// for every slot a notify returns.
type parker struct {
	ec *Eventcount
	ch []chan struct{}
}

func newParker(n int) *parker {
	p := &parker{ec: NewEventcount(n), ch: make([]chan struct{}, n)}
	for i := range p.ch {
		p.ch[i] = make(chan struct{}, 1)
	}
	return p
}

func (p *parker) commit(id int) {
	if p.ec.CommitWait(id) {
		<-p.ch[id]
	}
}

func (p *parker) unpark(id int) { p.ch[id] <- struct{}{} }

// unparked records the slots a notify hands to unpark, in order.
type unparked []int

func (u *unparked) unpark(id int) { *u = append(*u, id) }

// A notify racing into the prewait/commit window must bank a signal that
// CommitWait consumes without parking — the interleaving a naive
// check-then-park loop loses.
func TestNotifierSignalBanking(t *testing.T) {
	ec := NewEventcount(2)
	ec.Prewait()
	var got unparked
	if woke := ec.Notify(1, got.unpark); woke != 1 || len(got) != 0 {
		t.Fatalf("Notify(1) after prewait woke %d and unparked %v, want a banked signal (1, none)", woke, got)
	}
	if _, _, signals := notifState(ec); signals != 1 {
		t.Fatalf("signals = %d after notify into prewait window, want 1", signals)
	}
	if ec.CommitWait(0) {
		t.Fatal("CommitWait said park despite a banked signal")
	}
	if stack, waiters, signals := notifState(ec); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after banked-signal commit: stack=%#x waiters=%d signals=%d",
			stack, waiters, signals)
	}

	// With j prewaiting and k committed, Notify(n) wakes min(n, j+k): the j
	// signals are banked before any slot is popped, and unpark is called
	// once per popped slot, top of the stack first.
	for j := 0; j <= 2; j++ {
		for k := 0; k <= 2; k++ {
			for n := 0; n <= j+k+1; n++ {
				ec := NewEventcount(j + k)
				for id := 0; id < k; id++ {
					ec.Prewait()
					ec.CommitWait(id)
				}
				for i := 0; i < j; i++ {
					ec.Prewait()
				}
				var got unparked
				woke := ec.Notify(n, got.unpark)
				want := min(n, j+k)
				banked := min(n, j)
				if woke != want || len(got) != want-banked {
					t.Fatalf("j=%d k=%d: Notify(%d) woke %d and unparked %v, want %d woken, %d unparked",
						j, k, n, woke, got, want, want-banked)
				}
				for i, id := range got {
					if id != k-1-i {
						t.Fatalf("j=%d k=%d: Notify(%d) unparked %v, want the stack top first", j, k, n, got)
					}
				}
				if _, _, signals := notifState(ec); signals != uint64(banked) {
					t.Fatalf("j=%d k=%d: Notify(%d) banked %d signals, want %d", j, k, n, signals, banked)
				}
			}
		}
	}
}

// CancelWait must consume the signal addressed to it (when every prewaiter
// has one banked), leaving no stale signal to falsify a later CommitWait.
func TestNotifierCancelConsumesSignal(t *testing.T) {
	ec := NewEventcount(2)
	ec.Prewait()
	noUnpark := func(int) { t.Fatal("unpark called with no slot on the stack") }
	ec.Notify(1, noUnpark) // banks one signal for the one prewaiter
	ec.CancelWait()
	if stack, waiters, signals := notifState(ec); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after cancel: stack=%#x waiters=%d signals=%d",
			stack, waiters, signals)
	}
	if woke := ec.Notify(1, noUnpark); woke != 0 {
		t.Fatal("Notify woke someone on an idle eventcount")
	}
}

// The producers' fast path: notify on an idle eventcount is a single load
// that changes nothing.
func TestNotifierNotifyIdleFastPath(t *testing.T) {
	ec := NewEventcount(4)
	before := ec.state.Load()
	noUnpark := func(int) { t.Fatal("notify unparked a slot of an idle eventcount") }
	for _, n := range []int{1, 4, 100} {
		if woke := ec.Notify(n, noUnpark); woke != 0 {
			t.Fatalf("Notify(%d) woke %d on an idle eventcount, want 0", n, woke)
		}
	}
	if ec.NotifyAll(noUnpark) {
		t.Fatal("NotifyAll reported a wake on an idle eventcount")
	}
	if after := ec.state.Load(); after != before {
		t.Fatalf("idle notify mutated state: %#x -> %#x", before, after)
	}
}

// Committed waiters come off the stack last in, first out, each handed to
// unpark exactly once, with the slot's epoch bumped once per park.
func TestNotifierStackPopsCommittedSlots(t *testing.T) {
	ec := NewEventcount(4)
	for id := 0; id < 4; id++ {
		ec.Prewait()
		if !ec.CommitWait(id) {
			t.Fatalf("slot %d: CommitWait said do not park with no signal banked", id)
		}
		if got := ec.epochOf(id); got != 1 {
			t.Fatalf("slot %d: epoch %d after one park, want 1", id, got)
		}
	}
	var got unparked
	if woke := ec.Notify(1, got.unpark); woke != 1 || fmt.Sprint(got) != "[3]" {
		t.Fatalf("Notify(1) woke %d and unparked %v, want 1 and [3]", woke, got)
	}
	if woke := ec.Notify(2, got.unpark); woke != 2 || fmt.Sprint(got) != "[3 2 1]" {
		t.Fatalf("Notify(2) woke %d, unparked so far %v, want 2 and [3 2 1]", woke, got)
	}
	// More than is parked: only what exists comes off.
	if woke := ec.Notify(5, got.unpark); woke != 1 || fmt.Sprint(got) != "[3 2 1 0]" {
		t.Fatalf("Notify(5) woke %d, unparked so far %v, want 1 and [3 2 1 0]", woke, got)
	}
	if woke := ec.Notify(1, got.unpark); woke != 0 || len(got) != 4 {
		t.Fatalf("Notify on an emptied stack woke %d, unparked so far %v, want 0 and no more", woke, got)
	}
}

// parkedCount walks the intrusive stack: the number of committed waiters,
// which tests poll to wait for a pool to park. Exact while every pusher is
// parked (the stack is then stable); a walk that races a push or pop may
// miscount, and is cut at the slot count so it always ends.
func parkedCount(ec *Eventcount) int {
	n := 0
	top := ec.state.Load() & notifStackMask
	for top != notifStackMask && n < len(ec.waiters) {
		n++
		top = ec.waiters[top].next.Load() & notifStackMask
	}
	return n
}

// NotifyAll must capture and unpark the entire waiter stack in one CAS.
func TestNotifierNotifyAllUnparksChain(t *testing.T) {
	const n = 4
	p := newParker(n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p.ec.Prewait()
			p.commit(id)
		}(id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for parkedCount(p.ec) != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters parked", parkedCount(p.ec), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !p.ec.NotifyAll(p.unpark) {
		t.Fatal("NotifyAll found nobody despite a full stack")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("NotifyAll left waiters parked")
	}
	if stack, waiters, signals := notifState(p.ec); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after NotifyAll: stack=%#x waiters=%d signals=%d",
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
	p := newParker(consumers)
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
				p.ec.Prewait()
				if work.Load() > 0 || stop.Load() { // re-check AFTER announcing
					p.ec.CancelWait()
					continue
				}
				p.commit(id)
			}
		}(id)
	}
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				work.Add(1)              // publish...
				p.ec.Notify(1, p.unpark) // ...then notify
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
				consumed.Load(), total, parkedCount(p.ec))
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	p.ec.NotifyAll(p.unpark)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown NotifyAll left a consumer stuck")
	}
}

// Tasks submitted by concurrent producers onto the injection queue of a
// wide pool must each execute exactly once, and the queue's counters must
// account for every push and drain.
func TestInjectionExactlyOnce(t *testing.T) {
	e := New(16, WithMetrics(), withSpin(0))
	const producers = 8
	const perProducer = 100
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
	if snap.Injection.Pushes != total {
		t.Fatalf("injection pushes = %d, want %d", snap.Injection.Pushes, total)
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

// A full park/unpark cycle through the armed eventcount must not allocate:
// external submit -> wake -> run -> re-park, measured end to end.
func TestParkUnparkCycleZeroAlloc(t *testing.T) {
	e := New(1, withSpin(0))
	defer e.Shutdown()
	done := make(chan struct{})
	task := NewTask(func(Context) { done <- struct{}{} })
	run := func() {
		e.Submit(task)
		<-done
		// Wait until the worker is back inside the park protocol so every
		// measured iteration includes a real unpark.
		for parkedCount(e.ec) != 1 {
			runtime.Gosched()
		}
	}
	run() // settle rings, sudog caches, parked state
	if allocs := testing.AllocsPerRun(100, run); allocs > 0.5 {
		t.Fatalf("park/unpark cycle allocates %v objects per round, want 0", allocs)
	}
}

// Submitting prebuilt tasks through the injection queue of a wide pool must
// not allocate in steady state, wakes included.
func TestInjectionSubmitZeroAlloc(t *testing.T) {
	e := New(16, withSpin(0))
	defer e.Shutdown()
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
		t.Fatalf("injection submit allocates %v objects per %d-task round, want ~0", allocs, fan)
	}
}
