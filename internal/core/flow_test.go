package core

// Core-layer admission tests: a topology bound to a flow must charge the
// quota exactly once per dispatch and undo the charge exactly once on
// every exit path — success, refusal, task failure, and shutdown during
// a retry backoff. The counters make both leak directions visible:
// admitted > released is a leaked reservation, released > admitted is a
// double undo.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/testutil"
)

// TestFlowAdmissionRejectLeavesNoCharge: a dispatch refused by the quota
// runs nothing and charges nothing — all-or-nothing admission.
func TestFlowAdmissionRejectLeavesNoCharge(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	f := e.NewFlow("small", executor.FlowConfig{MaxInFlight: 4})

	tf := NewShared(e).SetFlow(f)
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		tf.Emplace1(func() { ran.Add(1) })
	}
	err := tf.Run()
	if !errors.Is(err, executor.ErrAdmission) {
		t.Fatalf("Run = %v, want ErrAdmission", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("refused graph ran %d tasks, want 0", ran.Load())
	}
	st := f.Stats()
	if st.InFlight != 0 || st.AdmittedTasks != 0 || st.ReleasedTasks != 0 {
		t.Fatalf("refusal charged the flow: in-flight %d admitted %d released %d, want all 0",
			st.InFlight, st.AdmittedTasks, st.ReleasedTasks)
	}
	if st.AdmissionRejects != 10 {
		t.Fatalf("admission rejects = %d, want 10 (one per node)", st.AdmissionRejects)
	}
}

// TestFlowShedExactlyOnce: a dispatch shed at the backlog watermark runs
// nothing, charges nothing, and the admitted dispatches around it still
// balance — no double undo from mixing refusal paths.
func TestFlowShedExactlyOnce(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()

	started := make(chan struct{})
	release := make(chan struct{})
	e.Submit(executor.NewTask(func(executor.Context) { close(started); <-release }))
	<-started

	f := e.NewFlow("wm", executor.FlowConfig{MaxBacklog: 2})
	var ran atomic.Int64
	job := func() *Future {
		jf := NewShared(e).SetFlow(f)
		jf.Emplace1(func() { ran.Add(1) })
		return jf.Dispatch()
	}
	// Worker blocked: each admitted dispatch parks its source in the flow
	// queue, so the third meets the watermark and sheds.
	ok1, ok2 := job(), job()
	shed := job()
	if err := shed.Get(); !errors.Is(err, executor.ErrOverloaded) {
		t.Fatalf("third dispatch = %v, want ErrOverloaded", err)
	}
	st := f.Stats()
	if st.OverloadSheds != 1 || st.AdmittedTasks != 2 {
		t.Fatalf("sheds/admitted = %d/%d, want 1/2", st.OverloadSheds, st.AdmittedTasks)
	}
	if st.ReleasedTasks != 0 {
		t.Fatalf("shed released %d reservations it never took", st.ReleasedTasks)
	}

	close(release)
	if err := ok1.Get(); err != nil {
		t.Fatal(err)
	}
	if err := ok2.Get(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d tasks, want 2 (shed job must not run)", ran.Load())
	}
	st = f.Stats()
	if st.AdmittedTasks != st.ReleasedTasks || st.InFlight != 0 {
		t.Fatalf("admitted %d released %d in-flight %d: charge not undone exactly once",
			st.AdmittedTasks, st.ReleasedTasks, st.InFlight)
	}
}

// TestFlowFailureReleasesExactlyOnce: a flow-bound graph whose task fails
// still returns its whole reservation exactly once, and the same
// taskflow re-runs cleanly afterwards (the reservation is per-run).
func TestFlowFailureReleasesExactlyOnce(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	f := e.NewFlow("fail", executor.FlowConfig{MaxInFlight: 8})

	tf := NewShared(e).SetFlow(f)
	boom := errors.New("boom")
	var fail atomic.Bool
	fail.Store(true)
	a := tf.EmplaceErr(func() error {
		if fail.Load() {
			return boom
		}
		return nil
	})
	b := tf.Emplace1(func() {})
	a.Precede(b)

	if err := tf.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	st := f.Stats()
	if st.AdmittedTasks != st.ReleasedTasks || st.InFlight != 0 {
		t.Fatalf("failed run leaked: admitted %d released %d in-flight %d",
			st.AdmittedTasks, st.ReleasedTasks, st.InFlight)
	}

	// The quota is whole again: an immediate re-run admits and succeeds.
	fail.Store(false)
	if err := tf.Run(); err != nil {
		t.Fatalf("re-run after failure: %v", err)
	}
	st = f.Stats()
	if st.AdmittedTasks != st.ReleasedTasks || st.InFlight != 0 {
		t.Fatalf("re-run leaked: admitted %d released %d in-flight %d",
			st.AdmittedTasks, st.ReleasedTasks, st.InFlight)
	}
}

// TestFlowShutdownReleasesExactlyOnce: shutting the executor down while a
// flow-bound retry backoff is armed resolves the timer, fails the
// topology, and returns the reservation exactly once — no leak, no
// double undo, no hung Future.
func TestFlowShutdownReleasesExactlyOnce(t *testing.T) {
	testutil.NoLeaks(t)
	e := executor.New(1)
	f := e.NewFlow("shut", executor.FlowConfig{MaxInFlight: 4})

	tf := NewShared(e).SetFlow(f)
	armed := make(chan struct{})
	var once sync.Once
	tf.EmplaceErr(func() error {
		once.Do(func() { close(armed) })
		return errors.New("transient")
	}).Retry(3, time.Hour)

	fut := tf.Dispatch()
	<-armed
	e.Shutdown()
	if err := fut.Get(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("Get after shutdown = %v, want ErrShutdown", err)
	}
	st := f.Stats()
	if st.AdmittedTasks != 1 || st.ReleasedTasks != 1 || st.InFlight != 0 {
		t.Fatalf("shutdown path: admitted %d released %d in-flight %d, want 1/1/0",
			st.AdmittedTasks, st.ReleasedTasks, st.InFlight)
	}
}

// TestFlowFairnessRaceMirror is the -race mirror of the sim fairness
// sweep: many goroutines run chains through three flows of different
// classes under real preemption, quota refusals are retried, and at the
// end the metrics reconcile, every reservation balances, and no
// goroutine leaks.
func TestFlowFairnessRaceMirror(t *testing.T) {
	testutil.NoLeaks(t)
	e := executor.New(4, executor.WithMetrics())
	defer e.Shutdown()
	flows := []executor.Flow{
		e.NewFlow("ia", executor.FlowConfig{Class: executor.Interactive, Weight: 2, MaxInFlight: 6}),
		e.NewFlow("batch", executor.FlowConfig{Class: executor.Batch, Weight: 3}),
		e.NewFlow("bg", executor.FlowConfig{Class: executor.Background, Weight: 1, MaxInFlight: 4}),
	}

	var done, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				tf := NewShared(e).SetFlow(flows[rng.Intn(len(flows))])
				var n atomic.Int64
				chain := 1 + rng.Intn(3)
				var prev Task
				for k := 0; k < chain; k++ {
					c := tf.Emplace1(func() { n.Add(1) })
					if k > 0 {
						prev.Precede(c)
					}
					prev = c
				}
				for {
					err := tf.Run()
					if err == nil {
						break
					}
					if !errors.Is(err, executor.ErrAdmission) && !errors.Is(err, executor.ErrOverloaded) {
						t.Errorf("g%d job %d: %v", g, i, err)
						return
					}
					refused.Add(1)
					time.Sleep(10 * time.Microsecond)
				}
				if n.Load() != int64(chain) {
					t.Errorf("g%d job %d: ran %d/%d nodes", g, i, n.Load(), chain)
					return
				}
				done.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if done.Load() != 8*50 {
		t.Fatalf("completed %d/%d jobs", done.Load(), 8*50)
	}

	snap, ok := e.MetricsSnapshot()
	if !ok {
		t.Fatal("MetricsSnapshot unavailable despite WithMetrics")
	}
	if err := snap.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for _, st := range e.FlowStats() {
		if st.AdmittedTasks != st.ReleasedTasks || st.InFlight != 0 {
			t.Fatalf("flow %q: admitted %d released %d in-flight %d",
				st.Name, st.AdmittedTasks, st.ReleasedTasks, st.InFlight)
		}
		if st.MaxInFlight > 0 && st.PeakInFlight > int64(st.MaxInFlight) {
			t.Fatalf("flow %q: peak %d exceeds quota %d", st.Name, st.PeakInFlight, st.MaxInFlight)
		}
	}
	t.Logf("race mirror: %d jobs, %d admission refusals retried", done.Load(), refused.Load())
}

// TestRunFlowBoundZeroAlloc: binding a taskflow to a flow must not put
// allocations on the steady-state re-run path — admission is atomics,
// the flow ring is warm, and the intrusive refs are reused.
func TestRunFlowBoundZeroAlloc(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	f := e.NewFlow("hot", executor.FlowConfig{Class: executor.Interactive, MaxInFlight: 128})
	tf := NewShared(e).SetFlow(f)
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
		t.Fatalf("flow-bound linear-chain Run allocates %v objects/run, want 0", allocs)
	}
}
