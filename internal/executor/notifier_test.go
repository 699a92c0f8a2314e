package executor

import (
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

func (p *parker) notifyOne() bool {
	woke, id := p.ec.NotifyOne()
	if id >= 0 {
		p.unpark(id)
	}
	return woke
}

// A notify racing into the prewait/commit window must bank a signal that
// CommitWait consumes without parking — the interleaving a naive
// check-then-park loop loses.
func TestNotifierSignalBanking(t *testing.T) {
	ec := NewEventcount(2)
	ec.Prewait()
	if woke, id := ec.NotifyOne(); !woke || id != -1 {
		t.Fatalf("NotifyOne after prewait = (%v, %d), want a banked signal (true, -1)", woke, id)
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
}

// CancelWait must consume the signal addressed to it (when every prewaiter
// has one banked), leaving no stale signal to falsify a later CommitWait.
func TestNotifierCancelConsumesSignal(t *testing.T) {
	ec := NewEventcount(2)
	ec.Prewait()
	ec.NotifyOne() // banks one signal for the one prewaiter
	ec.CancelWait()
	if stack, waiters, signals := notifState(ec); stack != notifStackMask || waiters != 0 || signals != 0 {
		t.Fatalf("state not quiescent after cancel: stack=%#x waiters=%d signals=%d",
			stack, waiters, signals)
	}
	if woke, _ := ec.NotifyOne(); woke {
		t.Fatal("NotifyOne woke someone on an idle eventcount")
	}
}

// The producers' fast path: notify on an idle eventcount is a single load
// that changes nothing.
func TestNotifierNotifyIdleFastPath(t *testing.T) {
	ec := NewEventcount(4)
	before := ec.state.Load()
	woke, _ := ec.NotifyOne()
	if woke || ec.NotifyAll(func(int) { t.Fatal("NotifyAll unparked a slot of an idle eventcount") }) {
		t.Fatal("notify reported a wake on an idle eventcount")
	}
	if after := ec.state.Load(); after != before {
		t.Fatalf("idle notify mutated state: %#x -> %#x", before, after)
	}
}

// Committed waiters come off the stack last in, first out, each returned
// exactly once, with the slot's epoch bumped once per park.
func TestNotifierStackPopsCommittedSlots(t *testing.T) {
	ec := NewEventcount(3)
	for id := 0; id < 3; id++ {
		ec.Prewait()
		if !ec.CommitWait(id) {
			t.Fatalf("slot %d: CommitWait said do not park with no signal banked", id)
		}
		if got := ec.epochOf(id); got != 1 {
			t.Fatalf("slot %d: epoch %d after one park, want 1", id, got)
		}
	}
	for want := 2; want >= 0; want-- {
		if woke, id := ec.NotifyOne(); !woke || id != want {
			t.Fatalf("NotifyOne = (%v, %d), want (true, %d)", woke, id, want)
		}
	}
	if woke, id := ec.NotifyOne(); woke || id != -1 {
		t.Fatalf("NotifyOne on an emptied stack = (%v, %d), want (false, -1)", woke, id)
	}
}

// parkedCount walks the intrusive stack. Safe only while every pusher is
// parked (the stack is then stable).
func parkedCount(ec *Eventcount) int {
	n := 0
	top := ec.state.Load() & notifStackMask
	for top != notifStackMask {
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
				work.Add(1)   // publish...
				p.notifyOne() // ...then notify
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

// Submitting prebuilt tasks through the injection queue of a wide pool must
// not allocate in steady state, wakes included.
func TestInjectionSubmitZeroAlloc(t *testing.T) {
	e := New(16, withSpin(0), withWakeProbability(0))
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
