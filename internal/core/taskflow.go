package core

import (
	"context"
	"errors"

	"gotaskflow/internal/executor"
)

// ErrNoSource is reported when a non-empty graph has no task without
// dependencies — a guaranteed dependency cycle that could never start.
var ErrNoSource = errors.New("core: dispatched graph has no source task (dependency cycle)")

// ErrCyclic is reported by Validate when the present graph contains a
// dependency cycle.
var ErrCyclic = errors.New("core: task dependency graph contains a cycle")

// ErrCancelled is reported by Future.Get after Future.Cancel.
var ErrCancelled = errors.New("core: topology cancelled")

// FlowBuilder is the unified graph-construction interface shared by static
// tasking (*Taskflow) and dynamic tasking (*Subflow) — the same API set
// applies to both (paper Section III-D).
type FlowBuilder interface {
	// Emplace creates one task per callable and returns the handles in
	// order (paper: tf.emplace(...)).
	Emplace(fns ...func()) []Task
	// EmplaceSubflow creates a dynamic task; at runtime fn receives a
	// *Subflow through which it spawns a child task graph.
	EmplaceSubflow(fn func(*Subflow)) Task
	// EmplaceErr creates an error-returning task; a non-nil result
	// fail-fast-cancels the topology (see Taskflow.EmplaceErr).
	EmplaceErr(fn func() error) Task
	// EmplaceCtx creates a context-aware, error-returning task; the body
	// receives a context cancelled on topology failure, cancellation, or
	// deadline (see Taskflow.EmplaceCtx).
	EmplaceCtx(fn func(context.Context) error) Task
	// EmplaceCondition creates a condition task. At runtime fn returns
	// the index of the successor to signal (in Precede order); any other
	// index signals nothing. Edges leaving a condition task are weak:
	// they do not count toward successors' dependency joins, which is
	// what lets condition tasks express branches and loops.
	EmplaceCondition(fn func() int) Task
	// Placeholder creates a task with no work assigned; work can be bound
	// later through Task.Work or Task.WorkCondition.
	Placeholder() Task

	// workerCount reports the worker count of the executor that will run
	// the flow (0 when unknown). The built-in algorithms use it to
	// auto-partition work into chunks proportional to the actual pool
	// size rather than GOMAXPROCS.
	workerCount() int
}

// builder is the graph-construction half of both FlowBuilders, as in
// Cpp-Taskflow's FlowBuilder base class: Taskflow embeds one over its present
// graph and Subflow one over the graph it spawns, so every Emplace call,
// Placeholder, Composed and NumNodes exist once.
type builder struct {
	g *graph
}

// add appends a fresh node running work to the graph, an edit of it
// (Task.edit), and returns its handle.
func (b *builder) add(work any) Task {
	n := b.g.alloc()
	n.idx = int32(len(b.g.nodes))
	n.work = work
	b.g.nodes = append(b.g.nodes, n)
	b.g.edits++
	return Task{n}
}

// Emplace creates one task per callable and returns their handles in order.
func (b *builder) Emplace(fns ...func()) []Task {
	ts := make([]Task, len(fns))
	for i, fn := range fns {
		ts[i] = b.Emplace1(fn)
	}
	return ts
}

// Emplace1 creates a single task; a convenience over Emplace for the
// common one-callable case.
func (b *builder) Emplace1(fn func()) Task {
	return b.add(fn)
}

// EmplaceSubflow creates a dynamic task (paper Section III-D): at runtime
// fn receives a *Subflow through which it spawns a child graph, and
// subflows may recursively spawn subflows of their own.
func (b *builder) EmplaceSubflow(fn func(*Subflow)) Task {
	return b.add(fn)
}

// EmplaceCondition creates a condition task whose result selects the
// successor branch to run; see FlowBuilder.EmplaceCondition.
func (b *builder) EmplaceCondition(fn func() int) Task {
	return b.add(fn)
}

// EmplaceErr creates an error-returning task. A non-nil result (or a
// panic) is recorded and fail-fast-cancels the topology: tasks that have
// not started are skipped, the dependency structure drains so Wait and Get
// never hang, and Future.Get reports every captured error via errors.Join.
func (b *builder) EmplaceErr(fn func() error) Task {
	return b.add(fn)
}

// EmplaceCtx creates a context-aware, error-returning task. The body
// receives a context that is cancelled when the topology fails, is
// cancelled, or exceeds the deadline of RunContext/DispatchContext, so
// long-running bodies can stop cooperatively mid-flight.
func (b *builder) EmplaceCtx(fn func(context.Context) error) Task {
	return b.add(fn)
}

// Placeholder creates a task with no work assigned.
func (b *builder) Placeholder() Task {
	return b.add(nil)
}

// NumNodes returns the number of tasks in the graph under construction: a
// Taskflow's present (not yet dispatched) graph, or the tasks a Subflow has
// spawned so far.
func (b *builder) NumNodes() int { return b.g.len() }

// Taskflow is the main entry of the library: the place to create task
// dependency graphs and dispatch them to an executor (paper Section III-A).
type Taskflow struct {
	name    string
	exec    executor.Scheduler
	ownExec bool

	// builder holds the present graph: the one under construction, which
	// Run executes and Dispatch takes.
	builder
	topologies []*topology

	// store is the free list of graph storage Reclaim fills and every
	// present graph draws on; see graphStore.
	store graphStore

	// runTopo is the reusable execution state behind Run/RunN: a topology
	// whose done channel is signalled (not closed) at quiescence and whose
	// source batch is pre-built, so steady-state re-runs of an unchanged
	// graph are allocation-free. Dropped when a setting it was built with
	// changes or Dispatch takes the graph; rebuilt when runStale.
	runTopo *topology

	// statsEnabled/statsTiming configure per-run statistics collection for
	// topologies created after CollectRunStats; see stats.go.
	statsEnabled bool
	statsTiming  bool

	// flow is the multi-tenant flow subsequently dispatched/run topologies
	// bind to (nil = unbound); see SetFlow.
	flow executor.Flow
}

var _ FlowBuilder = (*Taskflow)(nil)

// New creates a Taskflow with its own executor of n workers (n <= 0 means
// GOMAXPROCS). Call Close when done to stop the executor.
func New(n int) *Taskflow {
	tf := NewShared(executor.New(n))
	tf.ownExec = true
	return tf
}

// NewShared creates a Taskflow that shares s with other taskflows — the
// paper's shareable executor, which facilitates modular composition while
// avoiding thread over-subscription (Section III-E). s is any scheduler
// implementing the dispatch seam: the real work-stealing *executor.Executor,
// or internal/sim's deterministic SimExecutor for seed-replayable schedule
// exploration. Close does not stop a shared scheduler.
func NewShared(s executor.Scheduler) *Taskflow {
	tf := &Taskflow{exec: s}
	tf.g = tf.store.graph()
	return tf
}

// Close shuts down the executor if this Taskflow owns it. It does not wait
// for dispatched topologies; call WaitForAll first.
func (tf *Taskflow) Close() {
	if tf.ownExec {
		tf.exec.Shutdown()
	}
}

// Executor returns the underlying scheduler (shared or owned) — the real
// executor, or the simulation executor under internal/sim.
func (tf *Taskflow) Executor() executor.Scheduler { return tf.exec }

// workerCount implements FlowBuilder.
func (tf *Taskflow) workerCount() int { return tf.exec.NumWorkers() }

// SetName names the taskflow for DOT dumps, trace spans and TaskMeta.Flow.
// Returns tf for chaining.
func (tf *Taskflow) SetName(name string) *Taskflow {
	tf.name = name
	tf.runTopo = nil // the cached run state carries the old name
	return tf
}

// SetFlow binds subsequently dispatched or run topologies to a
// multi-tenant flow (executor.Flow, created by Executor.NewFlow or
// sim.SimExecutor.NewFlow on a shared scheduler). A bound topology:
//
//   - reserves its task count against the flow's in-flight quota at
//     dispatch/run time — Dispatch's Future resolves immediately with
//     executor.ErrAdmission / executor.ErrOverloaded (and Run returns it)
//     when the flow refuses the reservation, charging nothing;
//   - submits its sources, retries and semaphore hand-offs through the
//     flow's priority queue, so the executor drains them in class
//     priority and weighted round-robin order;
//   - returns the reservation exactly once when the topology finishes.
//
// nil unbinds. Returns tf for chaining.
func (tf *Taskflow) SetFlow(f executor.Flow) *Taskflow {
	tf.flow = f
	tf.runTopo = nil // the cached run state is bound to the old flow
	return tf
}

// NumTopologies returns the number of dispatched, not yet reclaimed
// topologies.
func (tf *Taskflow) NumTopologies() int { return len(tf.topologies) }

// Validate checks the present graph for strong dependency cycles (none can
// exist when every strong edge follows emplace order; Kahn's algorithm
// otherwise). Cycles through condition tasks are legal —
// that is how task-graph loops are expressed — so weak edges are ignored.
// Dispatch and Run perform the same check and refuse cyclic graphs with a
// descriptive error instead of deadlocking the waiters. Returns nil or an
// error naming the tasks on one cycle, wrapping ErrCyclic.
func (tf *Taskflow) Validate() error {
	return findCycleError(tf.g)
}

// Dispatch moves the present graph into a topology, schedules it for
// execution without blocking, and returns a Future to its completion
// status. The Taskflow is left with a fresh empty graph (paper Listing 6).
// A strongly cyclic graph is not scheduled at all: the Future completes
// immediately and Get reports a descriptive error naming the cycle.
func (tf *Taskflow) Dispatch() *Future {
	t := tf.dispatch(nil)
	return &Future{t}
}

// DispatchContext is Dispatch bound to ctx: when ctx is cancelled or its
// deadline expires, the topology is cooperatively cancelled — tasks that
// have not started are skipped, the graph drains, and Future.Get reports
// ctx.Err() among the captured errors. Context-aware tasks observe the
// cancellation mid-flight through their body context. A ctx that is
// already done resolves the Future at once with ctx.Err(), executing
// nothing — as RunContext refuses it.
func (tf *Taskflow) DispatchContext(ctx context.Context) *Future {
	t := tf.dispatch(ctx)
	return &Future{t}
}

// SilentDispatch dispatches the present graph, ignoring the execution
// status.
func (tf *Taskflow) SilentDispatch() {
	tf.dispatch(nil)
}

func (tf *Taskflow) dispatch(ctx context.Context) *topology {
	g := tf.g
	tf.g = tf.store.graph()
	tf.runTopo = nil
	t, err := tf.newTopology(g, false)
	tf.topologies = append(tf.topologies, t)
	if err == nil {
		err = t.launch(ctx)
	}
	if err != nil {
		// Refused: nothing started, so nothing else will resolve the Future.
		t.addErr(err)
		close(t.done)
	}
	return t
}

// WaitForAll dispatches the present graph (if non-empty) and blocks until
// every dispatched topology finishes. Completed topologies are reclaimed;
// it returns every captured task error across them aggregated with
// errors.Join (panics are converted to errors).
func (tf *Taskflow) WaitForAll() error {
	return tf.waitForAll(false)
}

// Reclaim is WaitForAll that also takes back the storage of the graphs it
// reclaims — their arena blocks and node lists — for the graphs built next
// on this Taskflow, so that a program that builds and launches a fresh graph
// per step (paper Section IV-B: one per incremental timing update) pays the
// allocator and the collector for the largest of them once, not for each.
//
// In exchange every Task handle into a reclaimed graph is dead, as in
// Cpp-Taskflow: using one panics until its node is handed out again, and
// then silently aliases the new task. A Future of a reclaimed topology keeps
// answering Get, Wait, Done and Cancelled; its Stats reports ok=false, for
// the graph they were read from is gone. Reclaim must not run concurrently
// with graph construction or with Stats on those Futures.
func (tf *Taskflow) Reclaim() error {
	return tf.waitForAll(true)
}

func (tf *Taskflow) waitForAll(recycle bool) error {
	if tf.g.len() > 0 {
		tf.dispatch(nil)
	}
	var errs []error
	for i, t := range tf.topologies {
		<-t.done
		if err := t.joinedErr(); err != nil {
			errs = append(errs, err)
		}
		if recycle {
			tf.store.reclaim(t.graph)
			t.graph = nil
		}
		tf.topologies[i] = nil
	}
	tf.topologies = tf.topologies[:0]
	return joinErrs(errs)
}
