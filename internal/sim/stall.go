package sim

// The stall watchdog under simulation (internal/executor/watchdog.go).
//
// The real Watchdog samples wall-clock time and the metrics snapshot from
// a supervisor goroutine and hands the samples to an executor.StallDetector.
// The simulation has no wall clock and no second goroutine, so it feeds the
// same detector from the step loop, with scheduling steps as the duration:
// every stallWindow steps it passes (steps, executed, queued) and the flow
// counters. Steps are the sim's notion of elapsed scheduler effort, which
// is exactly what distinguishes a livelock (steps advance, executed flat)
// from mere idleness (no steps at all — the lost-wakeup detector in
// sim.go owns that case, because a fully-parked model schedules nothing).
//
// The injected bug that validates the no-progress alarm,
// withInjectionStallBug, re-creates a realistic failure shape: the steal
// sweep goes blind to the injection queue while the park re-check
// (anyWork) still sees them. Workers then cycle prewait → re-check → cancel
// forever — the model burns scheduling steps without executing anything,
// the lost-wakeup detector never fires (someone is always runnable), and
// only the executed-progress check catches it. This mirrors how a real
// drain-order regression would present: CPU busy, queues full, throughput
// zero. The flow-starvation alarm is validated by withStrictDrainBug
// (fairness_internal_test.go).

import (
	"time"

	"gotaskflow/internal/executor"
)

// WithStallDetector arms the executor's stall detector, sampled every
// window scheduling steps (one step reads as one nanosecond). If queued
// work is visible while the executed counter has not moved across one full
// window, the simulation records a no-progress failure (reported by
// Failure, with the seed for replay) and recovers — the injected scheduling
// bug, if any, is cleared and every worker unparked so the backlog still
// drains and the conservation law (Enqueued == Executed) holds at
// quiescence. A backlogged flow left unserviced while its class drained
// past the watchdog's default service-gap bound is recorded as a
// flow-starvation failure; the schedule goes on. A window of 0 rounds up
// to 1.
func WithStallDetector(window uint64) Option {
	return func(s *SimExecutor) {
		s.stallWindow = max(window, 1)
		s.stall = executor.NewStallDetector(time.Duration(s.stallWindow), 0)
	}
}

// withInjectionStallBug makes the steal sweep ignore the injection
// queue while anyWork still counts it: victims leaves it out, so
// externally submitted work is visible to the park
// re-check but unreachable by any worker. The model livelocks —
// prewait/cancel cycles advance the step counter while the executed
// counter stays flat — which is the failure shape WithStallDetector
// exists to catch. Unexported: it exists so the stall detector's
// detection power is itself testable (see stall_internal_test.go).
func withInjectionStallBug() Option {
	return func(s *SimExecutor) { s.injStallBug = true }
}

// checkStall runs once every stallWindow steps (from step).
func (s *SimExecutor) checkStall() {
	now := time.Duration(s.st.Steps)
	if detail, fired := s.stall.Observe(now, s.st.Executed, s.queued()); fired {
		s.fail(executor.ReasonNoProgress, detail)
		// Recover: the sweep's job is to *detect* the stall
		// deterministically; clearing the injected bug and unparking every
		// worker keeps the graph completing, so the test harness can also
		// verify conservation after the failure is recorded.
		s.injStallBug = false
		s.unparkAll()
	}
	if detail, fired := s.stall.ObserveFlows(s.flows.Stats()); fired {
		s.fail(executor.ReasonFlowStarved, detail)
	}
}
