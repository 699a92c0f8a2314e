package sim

// Multi-tenant flows under simulation. The policy is not modelled: flows
// register on an executor.FlowTable and are the executor's own FlowQueue
// objects — each an executor.Queue, like the injection queue — so
// admission (shed before quota, all-or-nothing), the queues and their
// counters, and the weighted-round-robin wheel with its cursor walk are the
// code the worker pool runs, and a publication goes through the same
// queueHost as the injection queue's (sim.go). What is the simulation's own is here: the
// seed-chosen batch size of a drain, the service log the fairness properties
// are read from, and the injected strict-drain bug. The fairness properties
// proved here — bounded service gap, quota ceilings, conservation —
// therefore hold for the real executor up to memory-model effects, which the
// -race tests own.

import (
	"fmt"

	"gotaskflow/internal/executor"
)

// NewFlow registers a multi-tenant flow, as Executor.NewFlow does.
func (s *SimExecutor) NewFlow(name string, cfg executor.FlowConfig) executor.Flow {
	return s.flows.NewFlow(name, cfg)
}

// FlowStats snapshots every flow's counters in registration order.
func (s *SimExecutor) FlowStats() []executor.FlowStats { return s.flows.Stats() }

// WheelSize returns the weight-expanded wheel length of a class — the
// service-gap bound the fairness property tests assert against.
func (s *SimExecutor) WheelSize(class executor.PriorityClass) int {
	n := 0
	for _, st := range s.flows.Stats() {
		if st.Class == class {
			n += st.Weight
		}
	}
	return n
}

// FlowService records one flow-queue drain, for fairness analysis: which
// flow a worker serviced and which same-class flows had backlog at that
// instant. Recorded only under WithServiceLog.
type FlowService struct {
	Class executor.PriorityClass
	// FlowIdx is the serviced flow's registration index; Flow its name.
	FlowIdx int
	Flow    string
	// Tasks is how many tasks the drain moved (first ran, extras to the
	// worker's deque).
	Tasks int
	// Backlogged lists the registration indices of same-class flows that
	// had at least one queued task when the drain was chosen — the
	// serviced flow included. MaxServiceGap uses it to bound how long a
	// backlogged flow can be bypassed.
	Backlogged []int
}

// ServiceLog returns the flow drains recorded so far (nil unless the
// executor was built WithServiceLog).
func (s *SimExecutor) ServiceLog() []FlowService { return s.services }

// MaxServiceGap computes, over a service log, the longest run of
// consecutive same-class drains that bypassed flow idx while it had
// backlog the whole time. With the weighted-round-robin wheel this is
// bounded by WheelSize(class) − 1: every wheel rotation services each
// backlogged flow at least once. The strict-drain bug (registration-order
// scan, no wheel) breaks the bound as soon as an earlier flow keeps its
// queue non-empty.
func MaxServiceGap(log []FlowService, class executor.PriorityClass, idx int) int {
	gap, max := 0, 0
	for i := range log {
		sv := &log[i]
		if sv.Class != class {
			continue
		}
		backlogged := false
		for _, b := range sv.Backlogged {
			if b == idx {
				backlogged = true
				break
			}
		}
		if !backlogged || sv.FlowIdx == idx {
			// Either the flow was serviced, or it had no backlog at this
			// drain — both end any bypass run.
			gap = 0
			continue
		}
		gap++
		if gap > max {
			max = gap
		}
	}
	return max
}

// backlogged lists the flows of a class that have queued tasks, in
// registration order.
func (s *SimExecutor) backlogged(class executor.PriorityClass) []*executor.FlowQueue {
	var out []*executor.FlowQueue
	for _, f := range s.flows.Flows() {
		if f.Class() == class && f.Backlog() > 0 {
			out = append(out, f)
		}
	}
	return out
}

// drainFlows services one priority class for worker w: the flow table's
// wheel walk picks the flow, a seed-chosen batch of up to the steal quota
// leaves it, the first task runs and the extras land on w's deque. Reports
// whether a task ran.
func (s *SimExecutor) drainFlows(w int, class executor.PriorityClass) bool {
	walk := s.flows.Walk(class)
	f := walk.Next()
	if f == nil {
		return false
	}
	var standing []*executor.FlowQueue
	if s.strictDrainBug || s.logServices {
		standing = s.backlogged(class)
	}
	if s.strictDrainBug {
		// Injected starvation bug: always the first backlogged flow in
		// registration order — no weighted share, so a class-mate ahead of
		// you with a standing backlog starves you indefinitely. The
		// fairness sweep catches this as a MaxServiceGap violation.
		f = standing[0]
	}
	grabbed := make([]*executor.Runnable, s.batch(f.Backlog()))
	if s.logServices {
		sv := FlowService{Class: class, FlowIdx: f.Index(), Flow: f.Name(), Tasks: len(grabbed)}
		for _, g := range standing {
			sv.Backlogged = append(sv.Backlogged, g.Index())
		}
		s.services = append(s.services, sv)
	}
	f.Take(grabbed)
	s.st.FlowDrains++
	s.st.FlowDrainedTasks += uint64(len(grabbed))
	s.deques[w] = append(s.deques[w], grabbed[1:]...)
	s.runTask(w, grabbed[0])
	return true
}

// CheckQueues holds the simulator, at quiescence, to the queue and flow laws
// the worker pool's Snapshot.Reconcile checks: the injection queue and every
// flow queue drained, queue-side and scheduler-side drain counts equal
// (Stats.Drains/DrainedTasks for injection, FlowDrains/FlowDrainedTasks for
// the flows), reservations returned, quota ceilings respected.
func (s *SimExecutor) CheckQueues() error {
	err := executor.CheckQueueLaws("injection", []executor.QueueStats{s.inj.Stats()}, s.st.Drains, s.st.DrainedTasks)
	if err == nil {
		err = executor.CheckFlowLaws(s.FlowStats(), s.st.FlowDrains, s.st.FlowDrainedTasks)
	}
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}
