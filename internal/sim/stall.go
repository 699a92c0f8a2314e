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
// The detection power of both alarms is a row of the mutation kill table
// (internal/mutants), run against the code itself. The no-progress row
// makes the steal sweep blind to the injection queue while the park
// re-check (anyWork) still sees it: workers cycle prewait → re-check →
// cancel forever, the model burns scheduling steps without executing
// anything, the lost-wakeup detector never fires (someone is always
// runnable), and only the executed-progress check catches it — CPU busy,
// queues full, throughput zero. The flow-starvation row starts every wheel
// walk of the executor's flow table at slot 0, a registration-order scan.

import (
	"time"

	"gotaskflow/internal/executor"
)

// WithStallDetector arms the executor's stall detector, sampled every
// window scheduling steps (one step reads as one nanosecond). If queued
// work is visible while the executed counter has not moved across one full
// window, the simulation records a no-progress failure (reported by
// Failure, with the seed for replay) and ends the schedule as Shutdown
// does: a livelock is a policy fault no wake can cure, so the queued work
// is discarded and a Run waiting on it would not return — drive a workload
// that may livelock through Dispatch. A backlogged flow left unserviced
// while its class drained past the watchdog's default service-gap bound is
// recorded as a flow-starvation failure; the schedule goes on. A window of
// 0 rounds up to 1.
func WithStallDetector(window uint64) Option {
	return func(s *SimExecutor) {
		s.stallWindow = max(window, 1)
		s.stall = executor.NewStallDetector(time.Duration(s.stallWindow), 0)
	}
}

// checkStall runs once every stallWindow steps (from step).
func (s *SimExecutor) checkStall() {
	now := time.Duration(s.st.Steps)
	if detail, fired := s.stall.Observe(now, s.st.Executed, s.queued()); fired {
		s.fail(executor.ReasonNoProgress, detail)
		s.Shutdown()
		return
	}
	if detail, fired := s.stall.ObserveFlows(s.flows.Stats()); fired {
		s.fail(executor.ReasonFlowStarved, detail)
	}
}
