// Package executor implements the work-stealing task executor of the
// Cpp-Taskflow paper (Section III-E, Algorithm 1).
//
// The executor runs a fixed pool of worker goroutines. Each worker owns a
// Chase-Lev deque and loops:
//
//  1. pop a task from its own deque (LIFO, for locality);
//  2. otherwise steal, first from its last victim, then from random victims
//     and the external injection queue (FIFO);
//  3. otherwise announce itself on the eventcount, re-check every queue,
//     and park until a task producer wakes it precisely.
//
// The scheduling currency is *Runnable: a pointer to an interface slot that
// lives inside a pre-built task object (an intrusive task). Graph nodes
// implement Runnable once at construction and carry their own slot, so the
// steady-state dispatch path — push, pop, steal, invoke — performs no
// allocation: no closures are minted per execution and the deques store the
// pointers without any boxing layer.
//
// Two heuristics from the paper are implemented:
//
//   - Per-worker task cache: a task that finishes and makes a successor
//     ready hands one of them to its own worker, which runs it next without
//     any queue traffic, so linear task chains run without scheduling
//     overhead ("speculative execution", Algorithm 1 lines 16-25). The
//     hand-off is a continuation (Context.Continue), and there is no other:
//     the successor runs in the releasing task's frame, with no return to
//     the worker loop in between, while the worker books the boundary as
//     it books one of its loop.
//
//   - Precise wakeup: blocked workers park on a lock-free eventcount
//     (notifier.go) instead of the paper's mutex-guarded idlers list, and
//     every publication of n tasks wakes up to n of them through one
//     Eventcount.Notify, without broadcasting and without taking any lock:
//     when nobody is waiting the wake is a single atomic load. This is the
//     one wake rule. The paper's second one — after each task batch, wake
//     an idler with probability 1/16 (lines 26-28) — is not run: on every
//     benchmark workload of a 2-vCPU host it issued under 0.03 wakes per
//     thousand tasks (DESIGN.md, "Scheduler ablations").
//
// Producers that make several tasks ready at once submit them as a batch
// (SubmitBatch) with one wake of up to the batch size, instead of one wake
// attempt per task.
//
// The executor is pluggable and shareable: multiple Taskflow instances can
// dispatch graphs to one executor, avoiding thread over-subscription
// (paper Section III-E).
package executor

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"gotaskflow/internal/wsq"
)

// ErrShutdown is returned by Submit and SubmitBatch after
// Shutdown: the workers have exited, so an accepted task could never run
// and its producer would hang waiting for completion.
var ErrShutdown = errors.New("executor: submit after Shutdown")

// Runnable is a unit of work: a pre-built task object executed by pointer.
// It receives the scheduling Context of the worker executing it, through
// which it can submit follow-up tasks cheaply.
//
// The scheduler passes tasks around as *Runnable — a pointer to the
// interface slot, one word in the queues. Long-lived task objects (graph
// nodes, pipeline cells) embed a Runnable field initialized to themselves
// and submit its address, so re-executing them allocates nothing.
//
// Describe returns the task's identity in trace events; a task that has
// none returns the zero TaskMeta.
type Runnable interface {
	Run(ctx Context)
	Describe() TaskMeta
}

// Func adapts an ordinary function to a Runnable, for producers that have
// no pre-built task object (one-shot jobs, tests).
type Func func(Context)

// Run implements Runnable.
func (f Func) Run(ctx Context) { f(ctx) }

// Describe implements Runnable: a function has no identity.
func (Func) Describe() TaskMeta { return TaskMeta{} }

// NewTask boxes fn into a submit-ready task reference. Each call allocates
// one box; hot paths should use intrusive task objects instead.
func NewTask(fn func(Context)) *Runnable {
	r := Runnable(Func(fn))
	return &r
}

// Context is the scheduling interface visible to a running task. It is
// implemented by the worker executing the task and must not be retained
// after the task returns.
type Context interface {
	// Submit schedules a task on this worker's local deque and wakes an
	// idler if one exists.
	Submit(r *Runnable)
	// SubmitBatch schedules all tasks onto this worker's local deque with
	// one queue publication and wakes at most min(len(rs), idle workers).
	SubmitBatch(rs []*Runnable)
	// SubmitCached pushes the task onto this worker's own deque and wakes
	// nobody: the worker pops it next, unless a thief takes it first.
	//
	// Deprecated: use Continue, which runs the task in the caller's frame.
	SubmitCached(r *Runnable)
	// Continue hands r to this worker as the calling task's continuation,
	// which the caller then runs itself, in its own frame and before it
	// returns: the worker has booked the boundary between the two tasks as
	// it books one between two tasks of its loop — r counts as executed and
	// as a cache hit, and it starts at the end stamp of the task before it.
	// On a quiet pool (Executor.Quiet) Continue books nothing, so a caller
	// may skip the call there and run r.
	Continue(r *Runnable)
	// WorkerID returns the executing worker's index in [0, NumWorkers).
	WorkerID() int
	// Executor returns the owning scheduler (the real executor, or the
	// simulation executor when the task runs under internal/sim).
	Executor() Scheduler
	// StartStamp returns the Nanos reading at which the worker began the
	// current task; EndStamp returns the reading at the end of its body,
	// taken by whichever consumer asks first — the task's owner calls it
	// right after the body. While a recorder or the latency histograms are
	// armed each is read at most once per task and shared, by the task's
	// start/end trace events too, and a task that continues another
	// (Continue) starts at the end stamp of the task that handed it over:
	// the two share the boundary's one reading, so what the worker did
	// between the two bodies counts as the later task's.
	// Otherwise each call reads the clock.
	StartStamp() int64
	EndStamp() int64
	// Trace records an event about task (nil: about no task), attributed
	// to this worker and stamped EndStamp: it is for the running task's
	// owner to call after the body (or instead of it). No-op unless a
	// capture is active or the flight recorder is armed (see WithTracing /
	// WithFlightRecorder).
	Trace(kind EventKind, task *Runnable, arg uint64)
	// Settle makes everything this worker has recorded readable by others:
	// it ends the running task's span at EndStamp, publishes the worker's
	// trace events and adds its pending latency records to their histogram
	// and its batched cache hits to their counter (WorkerStats.CacheHits).
	// A worker keeps its records to itself while it has a next task in
	// hand, and settles by itself when it runs out of local work; the
	// running task's owner calls Settle, after the body, before it does
	// what may let a waiter go without this worker running another of its
	// tasks: a completion that hands nothing over, or parking the work on a
	// timer or a semaphore. Two nil checks when nothing is armed.
	Settle()
}

// spinSteals is the number of steal rounds a worker attempts before parking
// on the eventcount. Spinning bounds the futex ping-pong that fine-grained
// task graphs (sub-microsecond bodies) would otherwise trigger on every
// parallelism dip; workers yield the processor between rounds so spinning
// does not starve the producing worker on small machines.
const spinSteals = 32

// spinYieldEvery controls how often a spinning worker yields.
const spinYieldEvery = 4

type worker struct {
	id     int
	exec   *Executor
	queue  *wsq.Deque[Runnable]
	rng    uint64 // splitmix64 state of the steal sweep's start (sweepStart)
	victim int    // last successful steal victim

	// metrics points at this worker's padded counter block when the
	// executor was built WithMetrics, nil otherwise. Every instrumentation
	// point is one nil check on this pointer.
	metrics *workerMetrics

	// spine is the executor's event-recording state and ring this worker's
	// ring in it (trace.go), nil unless built WithTracing or
	// WithFlightRecorder. The rest is the running task's record state, live
	// while stamping is set (see begin): its two shared clock readings (0:
	// not taken yet; between tasks start holds the boundary stamp a
	// handed-over task inherits), whether its start event still lacks its end
	// event and, when events are wanted, the task and its identity.
	spine      *spine
	ring       *eventRing
	stamping   bool
	spanOpen   bool
	start, end int64
	cur        *Runnable
	meta       TaskMeta

	// held says the running task's release of the task heldArg names is
	// not written yet (Trace): the next record writes it, or folds it in.
	held    bool
	heldArg uint64

	// hits counts continuations booked by handOff and not yet added to
	// metrics.cacheHits; hitsAt is the stamp at which it last added them.
	hits   uint64
	hitsAt int64

	// quiet is the executor's (Executor.Quiet): nothing books this
	// worker's tasks, so a continuation has no boundary to book (Continue).
	quiet bool

	// dirty is the histogram shard holding records of this worker that no
	// reader can see yet (histogram.go), nil when there are none.
	dirty *latShard

	// park is where this worker sleeps when the eventcount's CommitWait says
	// park; a notify that pops the worker's slot sends to it. Buffered(1):
	// each slot is returned once per push, so the send never blocks.
	park chan struct{}
}

var _ Context = (*worker)(nil)

func (w *worker) WorkerID() int       { return w.id }
func (w *worker) Executor() Scheduler { return w.exec }

func (w *worker) Submit(r *Runnable) {
	w.queue.Push(r)
	w.wake(1)
}

func (w *worker) SubmitBatch(rs []*Runnable) {
	if len(rs) == 0 {
		return
	}
	w.queue.PushBatch(rs)
	w.wake(len(rs))
}

// wake follows a push of n tasks onto this worker's deque: up to n waiting
// workers are woken, and the wake is traced.
func (w *worker) wake(n int) {
	if woke := w.exec.wake(n); woke > 0 {
		w.traceEvent(EvWakePrecise, uint64(woke))
	}
}

// SubmitCached pushes without a wake: the worker is running and pops r
// next.
func (w *worker) SubmitCached(r *Runnable) { w.queue.Push(r) }

// Continue is Algorithm 1's task cache without the trip back to the run
// loop: the task in hand ends here and r begins, booked through the same
// finish and begin as two tasks of the loop — or, while the task's span is
// recorded, as one hand-off record (handOff) — and the caller runs r's
// body. A quiet pool books nothing.
func (w *worker) Continue(r *Runnable) {
	switch {
	case w.quiet:
	case w.spanOpen && w.spine.recording():
		w.handOff(r)
	default:
		if m := w.metrics; m != nil {
			m.cacheHits.Add(1)
		}
		w.finish(true)
		w.begin(r)
	}
}

// Executor schedules Runnables over a fixed set of worker goroutines.
type Executor struct {
	workers []*worker

	// inj is the external submission queue used by non-worker goroutines
	// (work sharing; see inject.go).
	inj *Queue

	// mt is the multi-tenancy state (flow.go), allocated lazily by the
	// first NewFlow call. Pools that never register a flow pay one nil
	// pointer load per steal sweep and per anyWork re-check.
	mt atomic.Pointer[FlowTable]

	// ec is the eventcount parked workers wait on (notifier.go).
	ec *Eventcount

	stop atomic.Bool
	wg   sync.WaitGroup

	// timers tracks armed AfterFunc callbacks (Task.Retry backoff) so
	// Shutdown can resolve them instead of letting them fire into a dead
	// pool later; see timers.go.
	timers timerRegistry

	// metrics is the scheduler counter storage (see metrics.go), non-nil
	// only when built WithMetrics.
	metricsOn bool
	metrics   *metricsState

	// spine is the event-recording state (see trace.go), non-nil only when
	// built WithTracing (traceCap > 0: capture sessions) or
	// WithFlightRecorder (flightCap > 0: always recording). Each
	// instrumentation point is one nil check on the worker's copy.
	traceCap, flightCap int
	spine               *spine

	// lat is the latency histogram sink of topologies bound to no flow (see
	// histogram.go; a flow carries its own), non-nil only when built
	// WithLatencyHistograms.
	latencyOn bool
	lat       *LatencySink

	// quiet is set by New when metrics, spine and lat are all nil: nothing
	// books the pool's tasks (Quiet). Every worker copies it.
	quiet bool

	// spin is the spinSteals constant, a field so that in-package tests can
	// force deterministic parks (withSpin). To ablate it, edit spinSteals
	// and run `make bench-pairs PARENT=HEAD`.
	spin int

	// Panic containment: a task that panics past its own recovery (e.g. a
	// bare one-shot NewTask) is caught at the worker loop and recorded here
	// instead of killing the process.
	panicMu sync.Mutex
	panics  []error
}

// MaxRecordedPanics bounds the contained-panic log so a pathological
// producer cannot grow it without bound; later panics are dropped.
const MaxRecordedPanics = 64

// Option configures an Executor.
type Option func(*Executor)

// withSpin sets the number of steal rounds a worker attempts before
// parking on the eventcount. Zero parks immediately.
func withSpin(rounds int) Option {
	return func(e *Executor) { e.spin = rounds }
}

// New creates an executor with n workers and starts them. If n <= 0 it
// defaults to runtime.GOMAXPROCS(0).
func New(n int, opts ...Option) *Executor {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Executor{spin: spinSteals}
	for _, opt := range opts {
		opt(e)
	}
	// The per-worker sweep starts draw from a per-instance seed: two
	// executors in one process must not follow identical scheduling
	// sequences.
	seed := uint64(rand.Int63())
	e.inj = NewInjection((*queueHost)(e))
	e.ec = NewEventcount(n)
	if e.metricsOn {
		e.metrics = newMetricsState(n)
	}
	if e.traceCap > 0 || e.flightCap > 0 {
		e.spine = newSpine(n, e.traceCap, e.flightCap)
	}
	e.workers = make([]*worker, n)
	if e.latencyOn {
		e.lat = newLatencySink(n, e.workers)
	}
	e.quiet = e.metrics == nil && e.spine == nil && e.lat == nil
	for i := 0; i < n; i++ {
		w := &worker{
			id:     i,
			exec:   e,
			queue:  wsq.New[Runnable](256),
			rng:    seed + uint64(i)*7919,
			victim: (i + 1) % n,
			park:   make(chan struct{}, 1),
		}
		if e.metrics != nil {
			w.queue.SetCounters(&e.metrics.deques[i].Counters)
			w.metrics = &e.metrics.workers[i].workerMetrics
		}
		if e.spine != nil {
			w.spine, w.ring = e.spine, &e.spine.rings[i]
			// Ring reallocations on the push path are a latency smell worth a
			// timeline mark; the hook runs on the owner, so it records into
			// the owner's ring.
			w.queue.SetGrowHook(func(newCap int) {
				w.traceEvent(EvQueueGrow, uint64(newCap))
			})
		}
		w.quiet = e.quiet
		e.workers[i] = w
	}
	e.wg.Add(n)
	for _, w := range e.workers {
		go e.run(w)
	}
	return e
}

// NumWorkers returns the number of worker goroutines.
func (e *Executor) NumWorkers() int { return len(e.workers) }

// Quiet reports whether the pool books nothing of the tasks it runs: it was
// built with none of WithMetrics, WithTracing, WithFlightRecorder and
// WithLatencyHistograms. On a quiet pool Context.Trace and Context.Continue
// book nothing, so a caller may run its continuation without the call, as
// internal/core's fused links do.
func (e *Executor) Quiet() bool { return e.quiet }

// Submit schedules a task from outside the worker pool via the injection
// queue (work sharing): a batch of one. Tasks running inside the pool should
// use their Context instead. After Shutdown it rejects the task with
// ErrShutdown instead of accepting work that could never run.
func (e *Executor) Submit(r *Runnable) error {
	rs := [1]*Runnable{r}
	return e.SubmitBatch(rs[:])
}

// SubmitBatch schedules several tasks at once and wakes up to len(rs)
// waiting workers. The batch is accepted whole or rejected whole with ErrShutdown, and lands
// on the injection queue under one lock, in order; batch drains and steals
// spread it. It is the queue's own SubmitBatch with the host called
// directly, not through the QueueHost interface: this is the pool's submit
// path.
func (e *Executor) SubmitBatch(rs []*Runnable) error {
	if len(rs) == 0 {
		return nil
	}
	if e.stop.Load() {
		return ErrShutdown
	}
	e.inj.push(rs)
	e.published(e.inj, len(rs))
	return nil
}

// published is the one step after any push onto a queue: one
// trace event and one computed wake count for the whole publication. A pool
// built without a recorder makes no trace call at all.
func (e *Executor) published(q *Queue, n int) {
	tracing := e.spine != nil
	if tracing {
		e.TraceExternal(EvInjectPush, TaskMeta{Flow: q.name}, injectArg(q.id, uint64(n)))
	}
	if woke := e.wake(n); woke > 0 && tracing {
		e.TraceExternal(EvWakePrecise, TaskMeta{}, uint64(woke))
	}
}

// queueHost is the Executor as its queues see it.
type queueHost Executor

func (h *queueHost) Stopped() bool             { return h.stop.Load() }
func (h *queueHost) Published(q *Queue, n int) { (*Executor)(h).published(q, n) }

// Stopped reports whether Shutdown has begun.
func (e *Executor) Stopped() bool { return e.stop.Load() }

// Shutdown stops all workers and waits for them to exit. Pending tasks that
// have not begun executing are discarded; callers are expected to have
// awaited completion (e.g. Taskflow.WaitForAll) first. Armed AfterFunc
// timers (retry backoffs) are stopped and their callbacks run now, so a
// topology waiting on a retry resolves with ErrShutdown instead of
// hanging or firing into the dead pool later. Shutdown is idempotent.
func (e *Executor) Shutdown() {
	if e.stop.Swap(true) {
		e.wg.Wait()
		return
	}
	e.ec.NotifyAll(e.unpark)
	e.wg.Wait()
	e.fireArmedTimers()
}

// take is one drain of q on behalf of this worker: up to the steal quota of
// q's visible backlog leaves it under one lock acquisition, the first task is
// returned for execution and the extras land on this worker's own deque. It
// returns the number of tasks moved; a queue showing no backlog costs one
// atomic load and no lock.
func (w *worker) take(q *Queue) (*Runnable, int) {
	grab := wsq.StealQuota(q.len.Load())
	if grab == 0 {
		return nil, 0
	}
	var scratch [wsq.MaxStealBatch]*Runnable
	k := q.Take(scratch[:grab])
	if k == 0 {
		return nil, 0
	}
	if k > 1 {
		w.queue.PushBatch(scratch[1:k])
	}
	w.traceEvent(EvInjectDrain, injectArg(q.id, uint64(k)))
	return scratch[0], k
}

// injCap reports the injection queue's ring capacity (for tests).
func (e *Executor) injCap() int {
	e.inj.mu.Lock()
	defer e.inj.mu.Unlock()
	return len(e.inj.ring.buf)
}

// anyWork reports whether any queue appears non-empty. Parking workers call
// it between Prewait and CommitWait: the eventcount's ordering guarantees
// that work published before a missed notify is visible to this re-check.
// Flow backlogs participate for the same reason the injection length does:
// a Flow.Submit publishes the backlog gauge before its wake, so a parking
// worker that misses the notify sees the count here.
func (e *Executor) anyWork() bool {
	if e.inj.len.Load() > 0 {
		return true
	}
	if mt := e.mt.Load(); mt != nil && mt.Backlog() > 0 {
		return true
	}
	for _, w := range e.workers {
		if !w.queue.Empty() {
			return true
		}
	}
	return false
}

// wake wakes up to n waiting workers through the eventcount and returns
// the number woken: the one wake rule, run after every publication of n
// tasks. One bounded wake per ready batch replaces a wake attempt per task,
// and when nobody is waiting it costs one atomic load, with no lock and no
// store — the fast path on a busy pool.
func (e *Executor) wake(n int) int {
	woke := e.ec.Notify(n, e.unpark)
	if woke > 0 {
		if m := e.metrics; m != nil {
			m.wakes.Add(uint64(woke))
		}
	}
	return woke
}

// unpark releases the worker of a slot a notify popped off the eventcount's
// stack.
func (e *Executor) unpark(id int) {
	e.workers[id].park <- struct{}{}
}

// steal tries the last victim first, then sweeps the other workers and the
// injection queue (Algorithm 1 line 3). One call is one steal attempt in
// the metrics; a hit is counted against the source it came from (a victim
// deque, the injection queue, or a flow queue).
//
// All sources are robbed in batch: a hit moves up to half of the source's
// visible backlog (capped at wsq.MaxStealBatch), executing the first task
// and parking the extras on this worker's own deque, so one victim
// selection and one sweep pay for several tasks on wide fan-outs.
//
// Multi-tenant drain order (flow.go, DequeRank): Interactive flow backlog
// outranks everything — it is checked before deque stealing, so
// request-shaped work preempts in-flight graph expansion at the next steal
// point. Batch flows rank below the deques and the plain injection queue
// (active graphs keep priority over new bulk admissions), and Background
// flows come last. Within a class, drainFlows walks the weighted
// round-robin wheel.
func (w *worker) steal() (*Runnable, bool) {
	e := w.exec
	m := w.metrics
	if m != nil {
		m.stealAttempts.Add(1)
	}
	mt := e.mt.Load()
	if mt != nil {
		for c := PriorityClass(0); c < DequeRank; c++ {
			if r, ok := w.drainFlows(mt, c); ok {
				return r, true
			}
		}
	}
	n := len(e.workers)
	if n > 1 {
		if w.victim != w.id {
			if r, k := e.workers[w.victim].queue.StealBatch(w.queue); k > 0 {
				w.noteSteal(m, w.victim, k)
				return r, true
			}
		}
		start := w.sweepStart(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if v == w.id {
				continue
			}
			if r, k := e.workers[v].queue.StealBatch(w.queue); k > 0 {
				w.victim = v
				w.noteSteal(m, v, k)
				return r, true
			}
		}
	}
	if r, k := w.take(e.inj); k > 0 {
		if m != nil {
			m.injectionDrains.Add(1)
			m.injectionDrainedTasks.Add(uint64(k))
		}
		return r, true
	}
	if mt != nil {
		for c := DequeRank; c < NumPriorityClasses; c++ {
			if r, ok := w.drainFlows(mt, c); ok {
				return r, true
			}
		}
	}
	return nil, false
}

// sweepStart draws the first worker of a steal sweep, uniform in [0, n):
// one splitmix64 step of the worker's state, scaled by multiply-shift.
func (w *worker) sweepStart(n int) int {
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int((z >> 32) * uint64(n) >> 32)
}

// noteSteal records one successful steal operation against victim v that
// moved k tasks (metrics and trace events).
func (w *worker) noteSteal(m *workerMetrics, v, k int) {
	if m != nil {
		m.steals.Add(1)
		m.stolenTasks.Add(uint64(k))
		if k > 1 {
			m.stealBatches.Add(1)
		}
	}
	w.traceEvent(EvSteal, uint64(v))
	if k > 1 {
		w.traceEvent(EvStealBatch, uint64(k))
	}
}

// run is the main worker loop, a direct transcription of Algorithm 1.
func (e *Executor) run(w *worker) {
	defer e.wg.Done()
	for {
		// Line 2: try local queue.
		r, ok := w.queue.Pop()
		if !ok {
			// Line 3: steal — which may take a while, or end in a park, so
			// what this worker still holds back of its records goes out first.
			w.Settle()
			r, ok = w.steal()
		}
		if !ok {
			// Spin briefly before parking.
			for s := 0; s < e.spin && !ok; s++ {
				if s%spinYieldEvery == spinYieldEvery-1 {
					runtime.Gosched()
				}
				r, ok = w.steal()
			}
		}
		if !ok {
			if e.stop.Load() {
				return
			}
			// Lines 5-15: two-phase park on the eventcount. prewait
			// announces intent, the anyWork re-check races any producer's
			// publish-then-notify — the eventcount guarantees one side sees
			// the other, so no lost wakeup without any lock. The deque is
			// scrubbed first: asleep, it must not be what keeps the graphs of
			// finished work reachable.
			w.queue.Scrub()
			e.ec.Prewait()
			if m := w.metrics; m != nil {
				m.prewaits.Add(1)
			}
			if e.anyWork() || e.stop.Load() {
				e.ec.CancelWait()
				if m := w.metrics; m != nil {
					m.waitCancels.Add(1)
				}
				continue
			}
			if m := w.metrics; m != nil {
				m.parks.Add(1)
			}
			w.traceEvent(EvPark, e.ec.epochOf(w.id))
			if e.ec.CommitWait(w.id) {
				<-w.park
			}
			w.traceEvent(EvUnpark, e.ec.epochOf(w.id))
			continue
		}

		// Lines 16-25, the speculative cache, run inside the invocation: a
		// successor the task releases runs as its continuation (Continue).
		e.invoke(w, r)
		// Lines 26-28, the probabilistic wakeup, are not run: every push
		// wakes through wake (DESIGN.md, "Scheduler ablations").
	}
}

func (e *Executor) invoke(w *worker, r *Runnable) {
	w.begin(r)
	e.safeRun(w, r)
	w.finish(false)
}

// begin books the start of r on w: while something records it, its stamps
// are shared from here to finish (stamping) and its start event is written.
func (w *worker) begin(r *Runnable) {
	tracing, timed := false, w.exec.lat != nil
	if sp := w.spine; sp != nil {
		if tracing = sp.recording(); !tracing && !timed {
			// Nothing may be recording any more: a hand-off stamp carried
			// for the capture that stopped must not outlive the tasks that
			// run unrecorded (see finish).
			w.start = 0
		}
	}
	if !tracing && !timed {
		return
	}
	// Something records this task: from here to finish its consumers share
	// the worker's two stamps instead of reading the clock.
	w.stamping = true
	// The start event is published at once: a task that never returns must
	// still be seen.
	if tracing {
		w.cur, w.meta = r, (*r).Describe()
		w.ring.write(int32(w.id), EvTaskStart, w.StartStamp(), &w.meta, 0)
		w.ring.publish()
		w.spanOpen = true
	}
}

// finish books the end of the task begin booked. handOff says a task follows
// on this worker with nothing in between but the bookkeeping that released
// it — a continuation — so this task's end stamp is its start stamp: one
// clock reading per hand-off.
func (w *worker) finish(handOff bool) {
	if !w.stamping {
		return
	}
	w.endSpan()
	w.start = 0
	if handOff {
		w.start = w.end
	}
	w.stamping, w.end = false, 0
	if w.cur != nil {
		w.cur, w.meta = nil, TaskMeta{}
	}
}

// safeRun executes r under worker-level panic containment: a panic that
// escapes the task's own recovery (e.g. a bare one-shot NewTask) is
// converted to a recorded error instead of unwinding the worker goroutine
// and killing the process. Library task objects (graph nodes, pipeline
// cells) recover their own panics before this net is reached, so it only
// fires for foreign Runnables — and for those the worker keeps running.
func (e *Executor) safeRun(w *worker, r *Runnable) {
	defer func() {
		if rec := recover(); rec != nil {
			e.containPanic(w.id, rec)
		}
	}()
	(*r).Run(w)
}

func (e *Executor) containPanic(worker int, rec any) {
	e.panicMu.Lock()
	if len(e.panics) < MaxRecordedPanics {
		e.panics = append(e.panics, fmt.Errorf("executor: task panicked on worker %d: %v", worker, rec))
	}
	e.panicMu.Unlock()
}

// PanicError returns the contained panics recorded so far joined into one
// error, or nil if every task has returned normally.
func (e *Executor) PanicError() error {
	e.panicMu.Lock()
	defer e.panicMu.Unlock()
	return errors.Join(e.panics...)
}
