package core

// Semaphore-parked tasks under cancellation × retry — the interaction
// matrix of three features that each reschedule work outside the normal
// dependency flow. Six tasks contend on a one-unit semaphore; one fails
// every attempt (exhausting its retry budget and fail-fast-cancelling
// the topology while siblings are parked on the semaphore), two fail
// transiently and retry through scheduler timers, and the rest are
// plain. The laws: the run quiesces, the permanent failure surfaces,
// no task exceeds its attempt budget, and every semaphore unit is
// returned. The matrix runs on the real executor (-race in CI) and under
// deterministic simulation across 120 seeds per worker count.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/sim"
	"gotaskflow/internal/testutil"
)

var errPermanent = errors.New("permanent failure")

const semRetryTasks = 6

// buildSemRetryFlow wires the contention graph into tf and returns the
// per-task attempt counters.
func buildSemRetryFlow(tf *Taskflow, sem *Semaphore, perm int) []*atomic.Int32 {
	attempts := make([]*atomic.Int32, semRetryTasks)
	for i := 0; i < semRetryTasks; i++ {
		i := i
		attempts[i] = &atomic.Int32{}
		var task Task
		switch {
		case i == perm:
			task = tf.EmplaceErr(func() error {
				attempts[i].Add(1)
				return errPermanent
			}).Retry(1, time.Microsecond)
		case i == (perm+1)%semRetryTasks || i == (perm+2)%semRetryTasks:
			task = tf.EmplaceErr(func() error {
				if attempts[i].Add(1) == 1 {
					return fmt.Errorf("transient %d", i)
				}
				return nil
			}).Retry(2, time.Microsecond)
		default:
			task = tf.Emplace1(func() { attempts[i].Add(1) })
		}
		task.Acquire(sem).Release(sem)
	}
	return attempts
}

// checkSemRetryRun asserts the matrix laws after one Run of the graph.
func checkSemRetryRun(t *testing.T, err error, sem *Semaphore, attempts []*atomic.Int32, perm int, replay string) {
	t.Helper()
	if err == nil {
		t.Fatalf("run with a permanently failing task reported success\nreplay: %s", replay)
	}
	if !errors.Is(err, errPermanent) {
		t.Fatalf("run error %v does not wrap the permanent failure\nreplay: %s", err, replay)
	}
	for i, a := range attempts {
		budget := int32(1)
		switch {
		case i == perm:
			budget = 2 // 1 + Retry(1)
		case i == (perm+1)%semRetryTasks || i == (perm+2)%semRetryTasks:
			budget = 3 // 1 + Retry(2)
		}
		if got := a.Load(); got > budget {
			t.Fatalf("task %d attempted %d times, budget %d\nreplay: %s", i, got, budget, replay)
		}
	}
	// Every execution — run, skipped, retried or abandoned at
	// cancellation — must have returned its semaphore unit.
	if v := sem.Value(); v != 1 {
		t.Fatalf("semaphore holds %d units after quiescence, want 1\nreplay: %s", v, replay)
	}
}

func TestSemaphoreCancelRetrySim(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				replay := fmt.Sprintf(
					"go test ./internal/core -run 'TestSemaphoreCancelRetrySim/w%d' -count=1 (failing seed %d)",
					workers, seed)
				s := sim.New(workers, sim.WithSeed(seed))
				tf := NewShared(s)
				sem := NewSemaphore(1)
				perm := int(seed) % semRetryTasks
				attempts := buildSemRetryFlow(tf, sem, perm)

				const runs = 2 // second run exercises the reusable topology after a failed run
				for run := 0; run < runs; run++ {
					for _, a := range attempts {
						a.Store(0)
					}
					checkSemRetryRun(t, tf.Run(), sem, attempts, perm, replay)
				}
				if err := s.Stats().Check(); err != nil {
					t.Fatalf("%v\nreplay: %s", err, replay)
				}
				if err := s.Failure(); err != nil {
					t.Fatalf("liveness failure: %v\nreplay: %s", err, replay)
				}
			}
		})
	}
}

func TestSemaphoreCancelRetryReal(t *testing.T) {
	testutil.NoLeaks(t)
	for _, workers := range []int{2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				replay := fmt.Sprintf(
					"go test -race ./internal/core -run 'TestSemaphoreCancelRetryReal/w%d' -count=1 (failing seed %d)",
					workers, seed)
				e := executor.New(workers)
				tf := NewShared(e)
				sem := NewSemaphore(1)
				perm := int(seed) % semRetryTasks
				attempts := buildSemRetryFlow(tf, sem, perm)
				checkSemRetryRun(t, tf.Run(), sem, attempts, perm, replay)
				e.Shutdown()
			}
		})
	}
}

// TestRetryTimerResolvedAtShutdown is the regression test for retry
// timers outliving the pool: a task fails with an hour-scale backoff
// (clamped to the 30s retry cap — still far beyond any test budget),
// the timer arms, and Shutdown must resolve it immediately: the future
// completes promptly wrapping ErrShutdown instead of waiting out the
// backoff or hanging forever on a pool that no longer exists.
func TestRetryTimerResolvedAtShutdown(t *testing.T) {
	testutil.NoLeaks(t)
	e := executor.New(2)
	tf := NewShared(e)
	tf.EmplaceErr(func() error { return errPermanent }).Retry(1, time.Hour)
	f := tf.Dispatch()

	testutil.Eventually(t, 5*time.Second, func() bool { return e.ArmedTimers() == 1 },
		"retry backoff timer never armed: ArmedTimers() = %d", e.ArmedTimers())
	e.Shutdown()

	done := make(chan error, 1)
	go func() { done <- f.Get() }()
	select {
	case err := <-done:
		if !errors.Is(err, executor.ErrShutdown) {
			t.Fatalf("Future.Get = %v, want error wrapping ErrShutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Future.Get still blocked 10s after Shutdown resolved the retry timer")
	}
	if n := e.ArmedTimers(); n != 0 {
		t.Fatalf("ArmedTimers() after Shutdown = %d, want 0", n)
	}
}
