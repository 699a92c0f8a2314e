// Package sim is a deterministic simulation executor for the taskflow
// scheduler: a single-threaded, virtual-time implementation of the
// executor.Scheduler and executor.Context seams that runs the same task
// graphs as the real work-stealing pool while a single seeded PRNG
// permutes every scheduling choice the real executor makes
// nondeterministically — ready-queue pop order, steal-victim selection,
// batch-steal sizes, drain order, retry-timer firing order, and park/wake
// interleavings.
//
// The point is replay. The chaos harness (internal/chaos) can inject
// faults deterministically, but on the real pool the *interleaving* that
// exposes a bug is gone the moment the run ends. Under simulation the
// whole schedule is a pure function of the seed: a failing property run
// or fuzz case prints its seed, and one `go test -run` invocation with
// that seed replays the identical schedule, fault plan and failure.
//
// # What is shared and what is modelled
//
// Every scheduling decision the real pool takes by rule is the real pool's
// own code, called from here; only what the real pool leaves to the machine
// is modelled. Shared with internal/executor and internal/wsq: the external
// queues (executor.Queue — the injection queue from executor.NewInjection
// and every flow's queue, their rings, gauges and counters, behind the
// executor.QueueHost seam), the flow table (executor.FlowTable —
// registration, admission, the per-class weighted wheel and its cursor
// walk), the steal quota (wsq.StealQuota), the class order of a steal sweep
// (executor.DequeRank), the park/wake protocol (executor.Eventcount — its
// banked signals, waiter stack and notify choices), the one wake rule (every
// publication of n tasks wakes up to n waiters through Eventcount.Notify,
// the call the pool's wake makes; the paper's probabilistic wakeup runs in
// neither), the stall detector
// (executor.StallDetector) and the queue and flow conservation laws
// (executor.CheckQueueLaws, executor.CheckFlowLaws).
//
// Modelled, one level up from the lock-free machinery: per-worker deques
// as plain slices, and where each worker is in its park loop — the
// eventcount never blocks, so where the pool parks a goroutine the sim
// marks a worker parked until a notify pops its slot. The simulation
// executes every task inline on the driving goroutine. A task that hands a
// successor on as its continuation (Context.Continue) runs it in the same
// step, so a continuation chain is one step, as it is one invocation on the
// pool. Each step the PRNG picks one enabled action:
//
//   - an active worker pops a task from its deque (any position — a
//     superset of the owner-LIFO/thief-FIFO orders reachable on the real
//     pool), or steals a batch of seed-chosen size
//     (1 up to the steal quota, where the real worker takes the quota) from
//     a seed-chosen victim deque or the injection queue;
//
//   - a task that makes successors ready or spawns a subflow places them
//     on a seed-chosen deque (simCtx.target): spawn and successor-release
//     points are explicit choice steps, so the sweep explores spawn/join
//     interleavings directly instead of only via later steals;
//
//   - a worker with nothing visible announces intent to park (Prewait);
//     on a later step it re-checks, cancelling the park if work is
//     published; on a later step still it commits, and parks unless a
//     notify that landed in between banked a signal for it;
//
//   - an armed virtual timer fires (any armed timer, in seed-chosen
//     order — real retry backoffs carry jitter, so their relative firing
//     order is genuinely unconstrained).
//
// Virtual time never sleeps: Task.Retry backoff and similar waits fire
// instantly once chosen, and the virtual clock only advances.
//
// # Liveness detection
//
// If no action is enabled while queued work remains — every worker
// parked, no timer armed, tasks sitting in a queue — a wakeup was lost.
// The simulation records the failure (see Failure) and recovers with
// NotifyAll so the graph still drains and waiters unblock; tests then fail
// with a one-line seed recipe. This is how a notifier protocol bug
// surfaces — in the eventcount itself, or in the worker-side order such as
// checking for work before announcing: as a deterministic, seed-replayable
// deadlock report instead of a hung -race run.
//
// Deadlock is not the only way to lose progress: a scheduler can also
// livelock, burning steps without ever executing a task. WithStallDetector
// (stall.go) feeds the real executor's stall detector every N steps — the
// executed counter must have moved whenever queued work is visible, and no
// backlogged flow may go unserviced while its class drains — and reports a
// seed-replayable failure otherwise; a livelock ends the schedule.
//
// How much each detector catches is measured against the code, not against
// bugs compiled into the model: the mutation kill table (internal/mutants)
// breaks the shared policy or this package's own steal sweep in a copy of
// the module and names the sweep that must catch it, with the seeds it
// caught.
// One injected bug stays here, withLostWakeupBug: it breaks the park loop,
// which only this package models.
//
// # What is and is not modeled
//
// The simulation explores scheduling orders, not memory-model behavior:
// everything runs on one goroutine, so torn reads, missing
// happens-before edges and other data races are invisible here — the
// race detector on the real pool still owns those. Wall-clock context
// deadlines (RunContext with a deadline) are also not virtualized; they
// fire from their own goroutines and belong to real-executor tests.
// A SimExecutor must be driven from a single goroutine; determinism is
// only guaranteed when task bodies are themselves deterministic and
// spawn no goroutines of their own.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/wsq"
)

// maxFailures bounds the liveness failures recorded (and recovered from)
// before the simulation gives up; a correct model never records even one.
const maxFailures = 100

// wstate is where a modelled worker is in its loop.
type wstate uint8

const (
	wActive  wstate = iota // looking for or executing work
	wPrewait               // announced intent to park, re-check pending
	wCommit                // re-check found nothing, commit pending
	wParked                // on the eventcount's stack until a notify pops it
)

// actionKind enumerates the schedulable step types.
type actionKind uint8

const (
	aPop actionKind = iota
	aSteal
	aPrewait
	aRecheck
	aCommit
	aTimer
)

type action struct {
	kind actionKind
	w    int
}

// simTimer is one armed virtual-clock callback.
type simTimer struct {
	s  *SimExecutor
	at time.Duration
	fn func()
}

// Stop implements executor.Timer.
func (t *simTimer) Stop() bool { return t.s.stopTimer(t) }

// Stats is a snapshot of the simulation's scheduling counters.
type Stats struct {
	// Steps counts scheduling decisions; Executed counts task-body
	// invocations; Enqueued counts tasks accepted into any queue (external
	// submissions and worker-context submissions) or run as a continuation.
	// Continued counts the continuations.
	Steps, Executed, Enqueued, Continued uint64
	// Steals/StolenTasks and Drains/DrainedTasks split operations from
	// tasks moved, mirroring the real executor's metrics.
	Steals, StolenTasks, Drains, DrainedTasks uint64
	// Prewaits, WaitCancels, Parks and Wakes count park-protocol steps.
	Prewaits, WaitCancels, Parks, Wakes uint64
	// TimersFired counts virtual-clock callbacks.
	TimersFired uint64
	// FlowDrains/FlowDrainedTasks count multi-tenant flow-queue drains,
	// mirroring the real executor's per-worker flow counters.
	FlowDrains, FlowDrainedTasks uint64
	// Recoveries counts the liveness failures recorded (lost wakeups
	// recovered from, stalls, flow starvations reported) — nonzero only
	// when the model or a fault in the shared policy lost progress; see
	// Failure.
	Recoveries int
}

// Check verifies the conservation law at quiescence before Shutdown:
// every task accepted into the simulation was executed exactly once.
func (st Stats) Check() error {
	if st.Enqueued != st.Executed {
		return fmt.Errorf("sim: enqueued %d tasks but executed %d", st.Enqueued, st.Executed)
	}
	return nil
}

// SimExecutor is the deterministic simulation scheduler. Create with New,
// hand to core.NewShared, and drive Run/Dispatch from one goroutine.
type SimExecutor struct {
	workers int
	seed    int64
	rng     *rand.Rand

	deques [][]*executor.Runnable // per-worker, newest at the end
	inj    *executor.Queue        // the injection queue, the pool's own type
	state  []wstate
	ec     *executor.Eventcount

	timers []*simTimer
	now    time.Duration

	running  bool
	cur      int // worker executing the current task
	stopped  bool
	maxSteps uint64

	// lostWakeBug re-introduces the pre-eventcount worker order (check for
	// work, then announce and commit in one step), for tests that validate
	// the liveness detector. See sim_internal_test.go.
	lostWakeBug bool

	// Multi-tenant flows (flow.go): the executor's own flow table with this
	// simulation as its host, and the optional per-drain service log the
	// fairness property tests analyze.
	flows       *executor.FlowTable
	logServices bool
	services    []FlowService

	// Stall watchdog (stall.go): the executor's detector, fed every
	// stallWindow steps.
	stall       *executor.StallDetector
	stallWindow uint64

	st       Stats
	hash     uint64 // FNV-1a over every PRNG decision: the schedule fingerprint
	failures []error
	panics   []error

	scratch   []action
	victimBuf []int
}

// Option configures a SimExecutor.
type Option func(*SimExecutor)

// WithSeed sets the schedule seed. The default is 1 — unlike the real
// executor, the simulation favors reproducibility over per-instance
// variation, so unseeded runs are already replayable.
func WithSeed(seed int64) Option {
	return func(s *SimExecutor) { s.seed = seed }
}

// withLostWakeupBug re-introduces the seed notifier's lost-wakeup
// ordering on the worker side: a worker checks for work before it
// announces intent to park, then announces and commits in one step, so a
// notify that lands between the check and the announcement finds nobody to
// wake. Unexported — it exists so the liveness detector itself is
// testable.
func withLostWakeupBug() Option {
	return func(s *SimExecutor) { s.lostWakeBug = true }
}

// WithServiceLog records one FlowService entry per flow-queue drain so
// tests can analyze service order and gaps (see MaxServiceGap). Costs
// memory proportional to drain count; off by default.
func WithServiceLog() Option {
	return func(s *SimExecutor) { s.logServices = true }
}

// New creates a simulation executor modeling n workers (n <= 0 means 1;
// the simulation never spawns goroutines regardless).
func New(n int, opts ...Option) *SimExecutor {
	if n <= 0 {
		n = 1
	}
	s := &SimExecutor{
		workers:  n,
		seed:     1,
		maxSteps: 5_000_000,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.inj = executor.NewInjection((*queueHost)(s))
	s.flows = executor.NewFlowTable((*queueHost)(s))
	s.rng = rand.New(rand.NewSource(s.seed))
	s.deques = make([][]*executor.Runnable, n)
	// An idle pool: everyone parked until work arrives.
	s.state = make([]wstate, n)
	s.ec = executor.NewEventcount(n)
	for w := range s.state {
		s.ec.Prewait()
		s.ec.CommitWait(w)
		s.state[w] = wParked
	}
	s.hash = 14695981039346656037 // FNV-1a offset basis
	return s
}

var _ executor.Scheduler = (*SimExecutor)(nil)

// Seed returns the schedule seed, for replay recipes.
func (s *SimExecutor) Seed() int64 { return s.seed }

// NumWorkers implements executor.Scheduler.
func (s *SimExecutor) NumWorkers() int { return s.workers }

// Stopped implements executor.Scheduler.
func (s *SimExecutor) Stopped() bool { return s.stopped }

// TraceExternal implements executor.Scheduler; the simulation records no
// traces.
func (s *SimExecutor) TraceExternal(executor.EventKind, executor.TaskMeta, uint64) {}

// Now returns the virtual clock.
func (s *SimExecutor) Now() time.Duration { return s.now }

// AdvanceBy moves the virtual clock forward — the hook for simulated
// sleeps (e.g. chaos delay faults) that must cost no wall time.
func (s *SimExecutor) AdvanceBy(d time.Duration) {
	if d > 0 {
		s.now += d
	}
}

// Stats returns the scheduling counters so far.
func (s *SimExecutor) Stats() Stats {
	st := s.st
	st.Recoveries = len(s.failures)
	return st
}

// ScheduleHash returns the FNV-1a fingerprint of every scheduling
// decision taken so far. Two runs of the same workload with the same
// seed produce identical hashes; tests use it to prove replay.
func (s *SimExecutor) ScheduleHash() uint64 { return s.hash }

// Failure joins the liveness failures detected so far (lost wakeups the
// model had to recover from). Nil means every schedule step was live.
func (s *SimExecutor) Failure() error { return errors.Join(s.failures...) }

// PanicError joins panics contained at the simulated-worker level,
// mirroring the real executor's PanicError.
func (s *SimExecutor) PanicError() error { return errors.Join(s.panics...) }

// pick draws a uniform choice in [0, n) and mixes it into the schedule
// fingerprint. Every scheduling decision goes through here.
func (s *SimExecutor) pick(n int) int {
	v := s.rng.Intn(n)
	s.hash = (s.hash ^ uint64(v)) * 1099511628211
	return v
}

// mix folds a non-PRNG event into the fingerprint (submissions, timer
// arms) so the hash covers the full interaction sequence.
func (s *SimExecutor) mix(v uint64) {
	s.hash = (s.hash ^ v) * 1099511628211
}

// Submit implements executor.Scheduler: a batch of one.
func (s *SimExecutor) Submit(r *executor.Runnable) error {
	return s.SubmitBatch([]*executor.Runnable{r})
}

// SubmitBatch implements executor.Scheduler: the whole batch lands on the
// injection queue in order, like the real pool's one-lock batch submit
// (drains and steals spread it); the queue's publication does the rest
// (queueHost.Published).
func (s *SimExecutor) SubmitBatch(rs []*executor.Runnable) error {
	return s.inj.SubmitBatch(rs)
}

// queueHost is the simulation as its queues — injection and flows — see it.
type queueHost SimExecutor

func (h *queueHost) Stopped() bool { return h.stopped }

// Published implements executor.QueueHost: count the tasks, fold the push
// (and which queue got it) into the fingerprint, wake up to n workers, and —
// when called from outside a running step — drive to quiescence.
func (h *queueHost) Published(q *executor.Queue, n int) {
	s := (*SimExecutor)(h)
	s.st.Enqueued += uint64(n)
	s.mix(1<<62 | uint64(q.TraceID())<<16 | uint64(n))
	s.wake(n)
	s.drive()
}

// AfterFunc implements executor.Scheduler: arm a virtual-clock timer.
// Armed timers fire in seed-chosen order whenever the scheduler chooses
// a timer step — retry backoffs cost no wall time. After Shutdown, fn
// runs immediately, matching the real executor's bounded-lifetime
// contract.
func (s *SimExecutor) AfterFunc(d time.Duration, fn func()) executor.Timer {
	t := &simTimer{s: s, at: s.now + d, fn: fn}
	if s.stopped {
		fn()
		return t
	}
	s.mix(uint64(len(s.timers)) | 1<<63)
	s.timers = append(s.timers, t)
	s.drive()
	return t
}

// stopTimer disarms t; reports whether it was still armed.
func (s *SimExecutor) stopTimer(t *simTimer) bool {
	for i, a := range s.timers {
		if a == t {
			s.timers = append(s.timers[:i], s.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Shutdown implements executor.Scheduler: refuse further submissions and
// resolve every armed timer now (their callbacks observe ErrShutdown on
// submission, exactly like the real executor's shutdown path). Pending
// queued tasks are discarded, as on the real pool.
func (s *SimExecutor) Shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	for len(s.timers) > 0 {
		t := s.timers[0]
		s.timers = s.timers[1:]
		t.fn()
	}
}

// drive runs scheduling steps until no action is enabled. Reentrant
// calls (submissions made by a running task or firing timer) return
// immediately; the outermost frame keeps stepping until quiescence.
func (s *SimExecutor) drive() {
	if s.running || s.stopped {
		return
	}
	s.running = true
	defer func() { s.running = false }()
	for s.step() {
	}
}

// queued counts the tasks in every deque, the injection queue and every flow
// queue: the published work a park re-check looks for. Flow queues
// participate for the same reason they do in the real anyWork: a flow
// submission publishes its backlog before waking, so a parking worker that
// misses the notify must see the count here — excluding them would make the
// liveness detector report false lost wakeups.
func (s *SimExecutor) queued() int {
	n := s.flows.Backlog() + s.inj.Backlog()
	for _, dq := range s.deques {
		n += len(dq)
	}
	return n
}

func (s *SimExecutor) anyWork() bool { return s.queued() > 0 }

// victims lists what worker w could steal from besides the flow queues, in
// a fixed order: another worker's deque (its index), then the injection
// queue (s.workers). The list lives in a buffer the next call reuses.
func (s *SimExecutor) victims(w int) []int {
	out := s.victimBuf[:0]
	for v, dq := range s.deques {
		if v != w && len(dq) > 0 {
			out = append(out, v)
		}
	}
	if s.inj.Backlog() > 0 {
		out = append(out, s.workers)
	}
	s.victimBuf = out
	return out
}

// step performs one seed-chosen scheduling action. It returns false at
// quiescence: no worker can act and no timer is armed.
func (s *SimExecutor) step() bool {
	if s.stopped {
		return false // Shutdown mid-drive: queued work is discarded, as on the real pool
	}
	cands := s.scratch[:0]
	for w := 0; w < s.workers; w++ {
		switch s.state[w] {
		case wActive:
			if len(s.deques[w]) > 0 {
				cands = append(cands, action{aPop, w})
			} else {
				if len(s.victims(w)) > 0 || s.flows.Backlog() > 0 {
					cands = append(cands, action{aSteal, w})
				}
				if !s.lostWakeBug || !s.anyWork() {
					// Under the injected bug the worker looks for work
					// before it announces, here, and announces blindly.
					cands = append(cands, action{aPrewait, w})
				}
			}
		case wPrewait:
			cands = append(cands, action{aRecheck, w})
		case wCommit:
			cands = append(cands, action{aCommit, w})
		}
	}
	if len(s.timers) > 0 {
		cands = append(cands, action{kind: aTimer})
	}
	s.scratch = cands[:0] // retain capacity

	if len(cands) == 0 {
		if s.anyWork() {
			s.recoverLostWakeup()
			return true
		}
		return false // quiescent
	}

	c := cands[s.pick(len(cands))]
	s.st.Steps++
	if s.st.Steps > s.maxSteps {
		panic(fmt.Sprintf(
			"sim: exceeded %d scheduling steps (livelocked graph?) — seed %d",
			s.maxSteps, s.seed))
	}
	if s.stall != nil && s.st.Steps%s.stallWindow == 0 {
		s.checkStall() // a livelock ends the schedule after this step
	}
	s.perform(c)
	return true
}

// recoverLostWakeup records a liveness failure — queued work with every
// worker parked and no timer armed — and wakes everyone so the graph still
// drains and waiters can observe the recorded failure instead of hanging.
func (s *SimExecutor) recoverLostWakeup() {
	s.fail("lost wakeup", fmt.Sprintf("%d queued tasks with all %d workers parked", s.queued(), s.workers))
	s.unparkAll()
}

// fail records one liveness failure with the step and the seed that replay
// it.
func (s *SimExecutor) fail(what, detail string) {
	s.failures = append(s.failures, fmt.Errorf("sim: %s at step %d: %s (seed %d)",
		what, s.st.Steps, detail, s.seed))
	if len(s.failures) > maxFailures {
		panic(fmt.Sprintf("sim: %d liveness failures — model is not live (seed %d)",
			len(s.failures), s.seed))
	}
}

// unparkAll is the eventcount's NotifyAll: every parked worker is popped
// and made active, and every worker between prewait and commit is left a
// signal.
func (s *SimExecutor) unparkAll() {
	s.ec.NotifyAll(s.unpark)
}

// unpark makes active the worker whose slot a notify popped off the
// eventcount's stack.
func (s *SimExecutor) unpark(w int) { s.state[w] = wActive }

// perform executes one chosen action.
func (s *SimExecutor) perform(c action) {
	switch c.kind {
	case aPop:
		dq := s.deques[c.w]
		i := s.pick(len(dq))
		r := dq[i]
		s.deques[c.w] = append(dq[:i], dq[i+1:]...)
		s.runTask(c.w, r)
	case aSteal:
		s.steal(c.w)
	case aPrewait:
		s.st.Prewaits++
		if s.lostWakeBug {
			s.state[c.w] = wCommit // looked already, announces at commit
			return
		}
		s.ec.Prewait()
		s.state[c.w] = wPrewait
	case aRecheck:
		s.recheck(c.w)
	case aCommit:
		s.commit(c.w)
	case aTimer:
		i := s.pick(len(s.timers))
		t := s.timers[i]
		s.timers = append(s.timers[:i], s.timers[i+1:]...)
		if t.at > s.now {
			s.now = t.at
		}
		s.st.TimersFired++
		t.fn()
	}
}

// batch draws the size of one steal or drain from a queue showing n tasks:
// 1 up to the steal quota, where the real worker takes the quota itself.
func (s *SimExecutor) batch(n int) int {
	return 1 + s.pick(int(wsq.StealQuota(int64(n))))
}

// steal moves a seed-chosen batch from a seed-chosen victim deque or the
// injection queue to worker w: the first task runs, the rest land on w's
// deque — the half-backlog batch policy of the real pool with the batch
// size itself under seed control.
//
// The class order is worker.steal's (executor.DequeRank): flow classes that
// outrank the deques and the injection queue first; the others only when
// none of those has work.
func (s *SimExecutor) steal(w int) {
	for c := executor.PriorityClass(0); c < executor.DequeRank; c++ {
		if s.drainFlows(w, c) {
			return
		}
	}
	victims := s.victims(w)
	if len(victims) == 0 {
		for c := executor.DequeRank; c < executor.NumPriorityClasses; c++ {
			if s.drainFlows(w, c) {
				return
			}
		}
		return
	}
	src := victims[s.pick(len(victims))]
	var grabbed []*executor.Runnable
	if src < s.workers {
		dq := s.deques[src]
		grabbed = append(grabbed, dq[:s.batch(len(dq))]...)
		s.deques[src] = append(dq[:0], dq[len(grabbed):]...)
		s.st.Steals++
		s.st.StolenTasks += uint64(len(grabbed))
	} else {
		grabbed = make([]*executor.Runnable, s.batch(s.inj.Backlog()))
		s.inj.Take(grabbed)
		s.st.Drains++
		s.st.DrainedTasks += uint64(len(grabbed))
	}
	s.deques[w] = append(s.deques[w], grabbed[1:]...)
	s.runTask(w, grabbed[0])
}

// recheck is worker w's look at the work sources after its prewait:
// published work cancels the park, nothing moves it on to commit.
func (s *SimExecutor) recheck(w int) {
	if !s.anyWork() {
		s.state[w] = wCommit
		return
	}
	s.ec.CancelWait()
	s.state[w] = wActive
	s.st.WaitCancels++
}

// commit ends worker w's park protocol: it parks unless a notify since its
// prewait banked a signal for it. Under the injected bug the worker
// announces here, in the same step as it commits.
func (s *SimExecutor) commit(w int) {
	if s.lostWakeBug {
		s.ec.Prewait()
	}
	if !s.ec.CommitWait(w) {
		s.state[w] = wActive
		s.st.WaitCancels++
		return
	}
	s.state[w] = wParked
	s.st.Parks++
}

// wake is the pool's wake rule: up to n waiters, each banked a signal
// between prewait and commit or popped off the stack and made active.
func (s *SimExecutor) wake(n int) {
	s.st.Wakes += uint64(s.ec.Notify(n, s.unpark))
}

// runTask executes one task inline on modeled worker w under panic
// containment mirroring the real executor's safeRun.
func (s *SimExecutor) runTask(w int, r *executor.Runnable) {
	prev := s.cur
	s.cur = w
	s.st.Executed++
	s.safeRun(w, r)
	s.cur = prev
}

func (s *SimExecutor) safeRun(w int, r *executor.Runnable) {
	defer func() {
		if rec := recover(); rec != nil {
			if len(s.panics) < executor.MaxRecordedPanics {
				s.panics = append(s.panics,
					fmt.Errorf("sim: task panicked on worker %d: %v", w, rec))
			}
		}
	}()
	(*r).Run(simCtx{s: s, w: w})
}

// simCtx implements executor.Context for tasks running under simulation.
type simCtx struct {
	s *SimExecutor
	w int
}

var _ executor.Context = simCtx{}

func (c simCtx) WorkerID() int                { return c.w }
func (c simCtx) Executor() executor.Scheduler { return c.s }

// The simulation records no events and shares no stamps: a task that
// times itself (RunStats timing) reads the real clock, and there is never
// anything to settle.
func (c simCtx) StartStamp() int64                                    { return executor.Nanos() }
func (c simCtx) EndStamp() int64                                      { return executor.Nanos() }
func (c simCtx) Trace(executor.EventKind, *executor.Runnable, uint64) {}
func (c simCtx) Settle()                                              {}

// target picks the deque a worker-context submission lands on. On the
// real pool a task submitted from a worker always enters that worker's
// own deque, but which worker ultimately *executes* it is decided later
// by stealing; the simulation collapses that two-step placement into one
// explicit seed choice, so successor-release and subflow-spawn points
// become choice steps the seed sweep explores directly (a superset of
// the real pool's reachable placements, like the any-position pop).
func (c simCtx) target() int {
	if c.s.workers == 1 {
		return c.w
	}
	return c.s.pick(c.s.workers)
}

// Submit is a batch of one.
func (c simCtx) Submit(r *executor.Runnable) { c.SubmitBatch([]*executor.Runnable{r}) }

// SubmitBatch pushes the batch onto one seed-chosen deque (one placement
// choice per batch, like the real pool's one-publication batch push) and
// wakes up to len(rs) waiters.
func (c simCtx) SubmitBatch(rs []*executor.Runnable) {
	if len(rs) == 0 {
		return
	}
	w := c.target()
	c.s.deques[w] = append(c.s.deques[w], rs...)
	c.s.st.Enqueued += uint64(len(rs))
	c.s.wake(len(rs))
}

// SubmitCached pushes onto this worker's own deque and wakes nobody, as on
// the pool.
func (c simCtx) SubmitCached(r *executor.Runnable) {
	c.s.deques[c.w] = append(c.s.deques[c.w], r)
	c.s.st.Enqueued++
}

// Continue counts r run: the caller runs it within this step, as the pool's
// worker runs it in the releasing task's frame.
func (c simCtx) Continue(*executor.Runnable) {
	c.s.st.Enqueued++
	c.s.st.Executed++
	c.s.st.Continued++
}
