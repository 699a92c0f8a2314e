package core

// Fault-tolerance layer: error-returning and context-aware task variants,
// per-task retry policies, and the plumbing that turns failures into
// cooperative topology cancellation. The paper's model assumes every task
// body succeeds; the successor Taskflow system (arXiv:2004.10908) added
// cancellation/exception support on top of the IPDPS 2019 executor, and
// this file is the Go counterpart. Graphs that use none of these features
// pay nothing on the scheduling hot path beyond two nil checks per task.

import (
	"fmt"
	"math/rand"
	"time"

	"gotaskflow/internal/executor"
)

// retryBackoffCap bounds the exponential backoff between retry attempts.
const retryBackoffCap = 30 * time.Second

// retryPolicy is a task's failure-retry configuration: up to max retries
// after the first failure, spaced by capped exponential backoff with
// jitter starting from backoff.
type retryPolicy struct {
	max     int
	backoff time.Duration
}

// delay returns the wait before the attempt-th retry (1-based): the base
// backoff doubled per earlier attempt, capped at retryBackoffCap, with
// uniform jitter in [d/2, d] so synchronized failures do not retry in
// lockstep.
func (rp *retryPolicy) delay(attempt int) time.Duration {
	d := rp.backoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt && d < retryBackoffCap; i++ {
		d *= 2
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Retry gives the task a failure-retry policy: when its body returns an
// error or panics, it re-executes up to n more times, waiting between
// attempts with capped exponential backoff plus jitter starting from
// backoff. The wait happens on a timer, not a worker — the task is
// resubmitted through the executor when the timer fires, so a retrying
// task never parks a worker. Semaphore units are released during the wait
// and re-acquired on resubmission. Retry applies to Emplace, EmplaceErr
// and EmplaceCtx bodies; condition and subflow tasks do not retry.
func (t Task) Retry(n int, backoff time.Duration) Task {
	nd := t.edit("Retry")
	if n < 0 {
		panic("core: negative retry count")
	}
	nd.extra().retry = &retryPolicy{max: n, backoff: backoff}
	return t
}

// resubmitAfter re-executes n after d through a scheduler timer and the
// injection queue — the waiting task holds no worker. The execution stays
// counted in pending, keeping the topology open until the retry resolves.
// The timer goes through Scheduler.AfterFunc, which gives it a bounded
// lifetime: if the scheduler shuts down while the backoff runs, the timer
// is resolved during Shutdown and the submission below fails with
// ErrShutdown, so the topology completes promptly instead of hanging on
// an execution that can never run (and no armed wall-clock timer outlives
// the pool). Under internal/sim the same seam is a virtual clock: the
// backoff fires instantly, in seed-controlled order.
func (t *topology) resubmitAfter(d time.Duration, n *node) {
	submit := func() {
		t.exec.TraceExternal(executor.EvRetryFire, n.Describe(), uint64(n.ext.attempts))
		if t.exec.Stopped() {
			// Dead pool: do not touch the semaphores (admission could park
			// the node forever — no release would ever come). Resolve the
			// execution so waiters unblock.
			t.fail(fmt.Errorf("core: retry of task %q: %w", n.name, executor.ErrShutdown))
			if t.pending.Add(-1) == 0 {
				t.finish()
			}
			return
		}
		// The retry's end-to-end window starts at this resubmission, not at
		// the original submission: the backoff sleep is policy, not queue
		// wait (latency.go).
		if t.lat != nil {
			n.readyAtNs = executor.Nanos()
		}
		if n.hasAcquires() && !t.admit((*offPool)(t), n) {
			return // parked; a semaphore release will submit it
		}
		if err := t.out.Submit(n.ref()); err != nil {
			// The executor shut down between the check above and the
			// submission: same resolution as the dead-pool path.
			t.fail(fmt.Errorf("core: retry of task %q: %w", n.name, err))
			if t.pending.Add(-1) == 0 {
				t.finish()
			}
		}
	}
	if d <= 0 {
		submit()
		return
	}
	t.exec.AfterFunc(d, submit)
}
