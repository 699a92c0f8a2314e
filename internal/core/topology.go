package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gotaskflow/internal/executor"
)

// topology wraps a dispatched graph and the metadata needed to track its
// execution status (paper Section III-C, Figure 3).
//
// Completion protocol: pending counts scheduled-but-unfinished node
// *executions* rather than nodes, because condition tasks (branches and
// loops) mean a node may execute zero or many times. The sources are
// pre-counted before any is submitted; after that an execution settles
// the net of what it released against its own unit, once (settle):
//
//   - k >= 2 released: pending += k-1, BEFORE any of the k is published or
//     offered to a semaphore. A released execution may run and settle on
//     another worker the moment it is visible; visible first, the k could
//     settle against their releaser's one unit and read zero too early.
//   - exactly one (a chain link, a taken condition branch, a third of a
//     random DAG's nodes): nothing. The finishing execution's unit becomes
//     its successor's, and a count that does not move cannot reach zero.
//   - none: pending -= 1; whoever reads zero signals quiescence (finish).
//
// A joined subflow's parent.children follows the same rules. Join counters
// re-arm where they are consumed — the release that takes one to zero
// stores numDependents back, on a line it already owns — so a run in which
// every node executed leaves them armed and the next does not sweep the
// graph first; topology.mustSweep lists the exceptions.
//
// Layout (TestTopologyHotColdLayout): what every execution reads comes
// first; pending, which every worker writes, has a cache line to itself, so
// those writes invalidate nothing a task loads; the cold fields follow.
type topology struct {
	cancelled atomic.Bool
	graph     *graph
	exec      executor.Scheduler

	// lat is the executor's latency histogram sink for this topology's
	// flow, non-nil only when the scheduler is an executor.Executor with
	// histograms enabled (see latency.go). timed is set when lat or the
	// stats block wants task bodies timed. quiet is set when the scheduler
	// books nothing (executor.Executor's Quiet) and no flow counts
	// executions: a fused link's release is then nothing at all, and
	// runLinks jumps straight to its successor's body.
	lat   *executor.LatencySink
	timed bool
	quiet bool

	// sumNodeStats says how an execution accounts itself on its node when
	// stats are collected: set, it adds to the node's per-run counters,
	// which the run swept first; clear — a re-run in which every node
	// executes exactly once — it overwrites them, and nothing is swept (see
	// addsNodeStats, mustSweep).
	sumNodeStats bool

	// stats is the per-run counter block, non-nil only when the owning
	// Taskflow enabled CollectRunStats. Reset per run, never reallocated.
	stats *topoStats

	// flow is the multi-tenant flow this topology is bound to (nil for
	// unbound topologies — the pre-multi-tenancy behavior).
	flow executor.Flow

	// ready is one scratch per worker for what a completion releases
	// beyond the node it continues with, and for the batch handOver builds
	// of them. Neither lives on the stack — zeroed on every completion, and
	// an argument of an interface call escapes — and neither needs a lock:
	// a worker completes one execution of t at a time (a parent completed
	// inside settle is one whose child released nothing), and SubmitBatch
	// copies the batch out before it returns.
	ready []releaseScratch

	// 56 bytes either side keep pending's line clear at any 8-byte alignment.
	_       [56]byte
	pending atomic.Int64
	_       [56]byte

	done chan struct{}

	// out is where launch, retries and off-pool semaphore hand-offs submit:
	// the flow when bound (so they inherit its priority class), else the
	// scheduler's injection queue. sources and semSources are the graph's
	// sources, split by whether they must pass semaphores first; built once
	// by newTopology, they serve every launch.
	out        target
	sources    []*executor.Runnable
	semSources []*node

	// flowReserved is the number of in-flight task units Admit charged the
	// flow at launch; finish returns them through Release exactly once
	// (including the failed-submission undo paths, which drain through
	// finish).
	flowReserved int

	// stopWatch unregisters the launch context's watcher (nil: none);
	// finish calls it, so a watcher lives exactly as long as its execution
	// and needs no goroutine.
	stopWatch func() bool

	// reusable marks a topology driven by Taskflow.Run: completion is
	// signalled with a token on the (buffered) done channel instead of a
	// close, so the same topology object serves many runs without
	// reallocating. edits is the graph's edit count the run state was built
	// at (graph.edits); a later edit makes it stale. hasCond records whether
	// the graph contains a condition task, so each launch re-arms every
	// node first.
	reusable bool
	edits    uint64
	hasCond  bool

	// errMu guards the captured-error list, the derived context, and the
	// run generation counter. errs accumulates every task failure (plus
	// cancellation/deadline causes); Future.Get joins them.
	errMu sync.Mutex
	errs  []error

	// ctx/cancelCtx is the topology's derived context, materialized only
	// when a context feature is in use: by launch under RunContext or
	// DispatchContext, else by the first ctx task (taskContext). Failure and cancellation cancel it, signalling
	// in-flight context-aware bodies. gen counts a reusable topology's runs
	// (a one-shot topology keeps 0), guarding it against stale deadline
	// callbacks from a previous run; it is atomic because trace events read
	// it from worker goroutines (TaskMeta.Gen) while launch advances it.
	ctx       context.Context
	cancelCtx context.CancelFunc
	gen       atomic.Uint64

	// flowName is the owning Taskflow's display name at dispatch time,
	// carried into trace spans.
	flowName string
}

// releaseChunk is the most released successors published at once; wider
// fan-outs go out in chunks of this size.
const releaseChunk = 16

// releaseScratch is one worker's entry of topology.ready.
type releaseScratch struct {
	nodes [releaseChunk]*node
	refs  [releaseChunk]*executor.Runnable
}

// finish signals quiescence: close for one-shot (dispatched) topologies,
// a token for reusable (Run) topologies. The context watcher is stopped and
// the derived context (if any) cancelled, so deadline timers and ctx-task
// observers are released.
func (t *topology) finish() {
	if st := t.stats; st != nil {
		// Written by the single finishing worker; waiters read it after the
		// done signal below, which provides the happens-before edge.
		st.wall = time.Duration(executor.Nanos() - st.startNs)
	}
	if t.stopWatch != nil {
		t.stopWatch()
	}
	t.cancelDerivedCtx()
	if f := t.flow; f != nil && t.flowReserved > 0 {
		// Release the admission reservation BEFORE the done signal: a
		// waiter that re-runs the moment done fires must find its units
		// returned, not race a stale reservation into ErrAdmission.
		f.Release(t.flowReserved)
	}
	if t.reusable {
		t.done <- struct{}{}
	} else {
		close(t.done)
	}
	if t.flow != nil {
		// A flow shares the pool with other tenants, so the worker that
		// finishes here usually has their work to go on with and would
		// not give up its processor before the pool runs dry. With no
		// processor to spare that leaves the waiter it just readied
		// runnable but not running; hand it this one.
		runtime.Gosched()
	}
}

// Future provides access to the execution status of a dispatched task
// dependency graph — the equivalent of the std::shared_future returned by
// Cpp-Taskflow's dispatch. A Future may be waited on by any number of
// goroutines.
type Future struct {
	t *topology
}

// Done returns a channel closed when the topology has finished executing.
func (f *Future) Done() <-chan struct{} { return f.t.done }

// Wait blocks until the topology has finished executing.
func (f *Future) Wait() { <-f.t.done }

// Get blocks until the topology finishes and returns nil on full success,
// or every captured failure — task errors, converted panics, ErrCancelled
// after Cancel, the context error after a deadline — aggregated with
// errors.Join (a single failure is returned unwrapped).
func (f *Future) Get() error {
	<-f.t.done
	return f.t.joinedErr()
}

// Cancel requests cooperative cancellation of the topology: tasks that
// have not started yet are skipped (their bodies never run), while tasks
// already executing finish normally. The dependency structure still
// drains, so Wait/Get return promptly; Get reports ErrCancelled.
// Cancelling a finished topology has no effect.
func (f *Future) Cancel() {
	select {
	case <-f.t.done:
		return
	default:
	}
	if !f.t.cancelled.Swap(true) {
		f.t.addErr(ErrCancelled)
		f.t.traceCancel()
		f.t.cancelDerivedCtx()
	}
}

// traceCancel records a topology cancellation into an active trace capture
// (external ring: cancellation originates off the worker pool or must not
// be attributed to the worker that happened to observe it).
func (t *topology) traceCancel() {
	t.exec.TraceExternal(executor.EvCancel, executor.TaskMeta{Flow: t.flowName, Gen: t.gen.Load()}, 0)
}

// Cancelled reports whether the topology was cancelled — by Cancel, by a
// failing task (fail-fast), or by a context deadline.
func (f *Future) Cancelled() bool { return f.t.cancelled.Load() }

// addErr records one captured failure.
func (t *topology) addErr(err error) {
	t.errMu.Lock()
	t.errs = append(t.errs, err)
	t.errMu.Unlock()
}

// joinedErr aggregates the captured failures: nil, the sole error, or
// errors.Join of all of them.
func (t *topology) joinedErr() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return joinErrs(t.errs)
}

// joinErrs joins errs without wrapping a sole error.
func joinErrs(errs []error) error {
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	}
	return errors.Join(errs...)
}

// fail records a task failure and fail-fast-cancels the topology: tasks
// that have not started are skipped while the dependency structure drains,
// so waiters observe the failure promptly and never hang.
func (t *topology) fail(err error) {
	t.addErr(err)
	if !t.cancelled.Swap(true) {
		t.traceCancel()
	}
	t.cancelDerivedCtx()
}

// cancelWith cancels the topology attributing err as the cause — the
// cooperative-cancel path used by context deadlines. gen must be the run
// generation the caller observed; a stale callback from a previous run of
// a reusable topology is ignored.
func (t *topology) cancelWith(gen uint64, err error) {
	t.errMu.Lock()
	if gen != t.gen.Load() {
		t.errMu.Unlock()
		return
	}
	t.errs = append(t.errs, err)
	cancel := t.cancelCtx
	t.errMu.Unlock()
	if !t.cancelled.Swap(true) {
		t.traceCancel()
	}
	if cancel != nil {
		cancel()
	}
}

// taskContext returns the context handed to context-aware task bodies. An
// execution launched without a caller context materializes it on first use,
// already cancelled if the topology is.
func (t *topology) taskContext() context.Context {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	if t.ctx == nil {
		t.ctx, t.cancelCtx = context.WithCancel(context.Background())
		if t.cancelled.Load() {
			t.cancelCtx()
		}
	}
	return t.ctx
}

// cancelDerivedCtx cancels the derived context, if one was materialized.
func (t *topology) cancelDerivedCtx() {
	t.errMu.Lock()
	cancel := t.cancelCtx
	t.errMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// runNode executes one node whose body runLinks does not run — one of
// another kind, a retryable one, or any in a cancelled topology: invoke its
// work, spawn its subflow or composed graph if it is a dynamic task, signal
// the selected branch if it is a condition task, then (unless deferred by
// joined children) complete it. It returns the execution it released for
// this worker to continue with (node.Run), nil for none.
func (t *topology) runNode(ctx executor.Context, n *node) *node {
	if t.cancelled.Load() {
		// Cooperative cancellation: skip the body but keep draining the
		// dependency structure so waiters unblock (including semaphore
		// units this execution was admitted with). Condition tasks signal
		// nothing, which terminates loops.
		if st := t.stats; st != nil {
			st.skipped.Add(1)
			if !t.addsNodeStats(n) {
				n.execCount, n.execDurNs = 0, 0
			}
		}
		ctx.Trace(executor.EvSkip, n.ref(), 0)
		t.releaseSems(ctx, n)
		if n.isCondition() {
			return t.complete(ctx, n, released{})
		}
		return t.finishNode(ctx, n)
	}
	start := t.bodyStart(ctx, n, 0)
	switch w := n.work.(type) {
	case func() int:
		idx := -1
		t.invoke(n, func() { idx = w() })
		t.bodyEnd(ctx, n, start, true)
		t.releaseSems(ctx, n)
		// Signal exactly the chosen successor; an out-of-range index
		// (including the -1 left by a panic) signals nothing, which is
		// how a branch terminates.
		if idx < 0 || idx >= int(n.succCount) {
			return t.complete(ctx, n, released{})
		}
		// A taken condition branch releases its target exactly like a
		// final join-decrement releases a strong successor.
		s := n.successor(idx)
		t.arm(ctx, n, s)
		return t.complete(ctx, n, released{first: s})
	case func(*Subflow):
		sf := &Subflow{builder: builder{&graph{}}, topo: t}
		n.extra().subgraph = sf.g
		t.invoke(n, func() { w(sf) })
		t.bodyEnd(ctx, n, start, true)
		t.releaseSems(ctx, n)
		if sf.g.len() > 0 {
			if next, joined := t.spawn(ctx, n, sf.g, !sf.detached); joined {
				return next
			}
		}
	case *Taskflow:
		t.bodyEnd(ctx, n, start, true)
		t.releaseSems(ctx, n)
		if next, joined := t.compose(ctx, n, w.g); joined {
			return next
		}
	case Module:
		// A module task completes when the last execution it counts
		// retires (Join.Done), as a joined subflow does; its start holds
		// the first unit. Its executions record their own latency.
		t.releaseSems(ctx, n)
		n.children.Store(1)
		w.Start(ctx, Join{n})
		return nil
	default: // retryable, context-aware, or a placeholder
		if !t.runFallible(ctx, n, start) {
			return nil // retry scheduled; the execution is still outstanding
		}
	}
	return t.finishNode(ctx, n)
}

// runLinks runs static bodies (node.static) from n on, one after another in
// this frame and under one panic net — Algorithm 1's task cache as a jump back
// to the top of the loop. After a fused link (node.fused) the release of the
// successor is its arm alone; after any other body finishNode completes the
// execution. The next node is continued (Context.Continue) and runs here if
// it is static and the topology not cancelled; else it is returned,
// continued, for runNode. nil means the worker has nothing to go on with.
// Whether bodies are booked (bodyStart, bodyEnd) is read once per call; a
// body after another starts at its end stamp, so a timed run reads the clock
// once per body whatever the pool books. On a quiet topology that books
// nothing a dense node (node.dense) starts a run of its path's bodies from
// its graph's table (runPath): no trace event, no counter to re-arm, no wait
// clock and no Continue, which books nothing on a quiet pool
// (executor.Executor's Quiet). A cancelled topology returns the next node of
// the path uncontinued; the path's last node goes on as any other. A panic
// ends the run: recoverLink completes the link that panicked, and the caller
// starts a new run from what that released — in the middle of a path, the
// rest of it.
func (t *topology) runLinks(ctx executor.Context, n *node) (next *node) {
	var start, end int64
	i := -1 // the position of the body running in n's graph's table, if any
	defer func() {
		if r := recover(); r != nil {
			if i >= 0 {
				n = n.g.path[i]
			}
			next = t.recoverLink(ctx, n, start, r)
		}
	}()
	books := t.stats != nil || t.timed
	dense := t.quiet && !books
	for {
		if dense && n.dense {
			g := n.g
			if i = int(g.at[n.idx]); t.runPath(g.bodies, &i) {
				return g.path[i]
			}
			n, i = g.path[i], -1
		} else {
			if books {
				start = t.bodyStart(ctx, n, end)
			}
			if w, ok := n.work.(func()); ok {
				w()
			} else if err := n.work.(func() error)(); err != nil {
				t.failTask(n, err)
			}
			if books {
				end = t.bodyEnd(ctx, n, start, true)
			}
		}
		var s *node
		if n.fused {
			s = n.succInline[0]
			t.arm(ctx, n, s)
			if f := t.flow; f != nil {
				f.NoteExecuted(1)
			}
		} else {
			t.releaseSems(ctx, n)
			s = t.finishNode(ctx, n)
		}
		if s == nil {
			return nil
		}
		ctx.Continue(s.ref())
		if n = s; !n.static() || t.cancelled.Load() {
			return n
		}
	}
}

// runPath runs the bodies of a dense path from position *i of its graph's
// table on, keeping *i at the body running: a loop of the body, the
// cancelled read and the next index. It stops at the nil that ends the path,
// with *i there, or reports the cancelled topology, with *i at the next body.
// A loop of its own keeps that loop out of runLinks' frame, whose other
// values it would reload after every body.
func (t *topology) runPath(bodies []func(), i *int) (cancelled bool) {
	for {
		bodies[*i]()
		if *i++; bodies[*i] == nil {
			return false
		}
		if t.cancelled.Load() {
			return true
		}
	}
}

// recoverLink completes n, whose static body panicked in runLinks, as its
// execution outside a fused run would have: the panic is recorded as the
// task's error — a fallible body's fails the topology — and finishNode
// releases its successors. It returns the continued node to go on with.
func (t *topology) recoverLink(ctx executor.Context, n *node, start int64, r any) *node {
	if _, ok := n.work.(func() error); ok {
		t.failTask(n, fmt.Errorf("task panicked: %v", r))
	} else {
		t.panicked(n, r)
	}
	t.bodyEnd(ctx, n, start, true)
	t.releaseSems(ctx, n)
	s := t.finishNode(ctx, n)
	if s != nil {
		ctx.Continue(s.ref())
	}
	return s
}

// bodyStart accounts an execution of n whose body is about to run and
// returns the stamp bodyEnd measures it from (zero when nothing times it):
// from, the end stamp of the body this frame ran before it, when the caller
// has one — one clock reading per boundary, on a worker that stamps nothing
// too — else the worker's start stamp. Every non-skipped execution counts
// — retry attempts and condition-loop iterations included — and is
// mirrored on the node for the annotated DOT dump.
func (t *topology) bodyStart(ctx executor.Context, n *node, from int64) int64 {
	if st := t.stats; st != nil {
		st.workers[ctx.WorkerID()].tasks++
		if t.addsNodeStats(n) {
			n.execCount++
		} else {
			n.execCount = 1
		}
	}
	if !t.timed {
		return 0
	}
	if from != 0 {
		return from
	}
	return ctx.StartStamp()
}

// addsNodeStats reports whether an execution of n adds to n's per-run
// counters instead of overwriting them: always under sumNodeStats, and for a
// retry attempt, which follows the attempt that overwrote them.
func (t *topology) addsNodeStats(n *node) bool {
	return t.sumNodeStats || (n.ext != nil && n.ext.attempts > 0)
}

// runFallible executes the body of an error-returning, context-aware,
// retryable or placeholder task that started at start. It reports whether
// the execution resolved (success or final failure) — false means a retry
// was scheduled and the execution remains outstanding. A final failure
// fail-fast-cancels the topology.
func (t *topology) runFallible(ctx executor.Context, n *node, start int64) bool {
	err := t.captureErr(n)
	rp := n.retryPolicy()
	retry := err != nil && rp != nil && n.ext.attempts < rp.max && !t.cancelled.Load()
	// An attempt that arms a retry is busy time but no resolved execution;
	// the resolving attempt's timing spans from the last (re)submission,
	// not the first — see latency.go.
	t.bodyEnd(ctx, n, start, !retry)
	if retry {
		n.ext.attempts++
		if st := t.stats; st != nil {
			st.retries.Add(1)
		}
		ctx.Trace(executor.EvRetryArm, n.ref(), uint64(n.ext.attempts))
		// Release units now: the retry waits on a timer, not on a worker,
		// and re-admits through the semaphores when it resubmits — to any
		// worker, so this one's records of the attempt go out first.
		t.releaseSems(ctx, n)
		ctx.Settle()
		t.resubmitAfter(rp.delay(n.ext.attempts), n)
		return false
	}
	if n.ext != nil {
		n.ext.attempts = 0
	}
	if err != nil {
		t.failTask(n, err)
	}
	t.releaseSems(ctx, n)
	return true
}

// captureErr invokes n's body, converting a panic into an error.
func (t *topology) captureErr(n *node) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	switch w := n.work.(type) {
	case func() error:
		return w()
	case func(context.Context) error:
		return w(t.taskContext())
	case func():
		w()
	}
	return nil
}

// invoke runs fn, converting a panic into a recorded topology error so the
// graph still drains and WaitForAll terminates.
func (t *topology) invoke(n *node, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			t.panicked(n, r)
		}
	}()
	fn()
}

// panicked records r, a panic of n's body, as a topology error; unlike a
// failure it cancels nothing, and the graph drains as it would have.
func (t *topology) panicked(n *node, r any) {
	t.addErr(fmt.Errorf("core: task %q panicked: %v", n.name, r))
}

// failTask records err as the failure of n's body and fail-fast-cancels
// the topology.
func (t *topology) failTask(n *node, err error) {
	t.fail(fmt.Errorf("core: task %q failed: %w", n.name, err))
}

// spawn starts g, the child graph an execution of n spawned. Joined, n
// completes only after every child execution (recursively) finishes — maybe
// on another worker, before this one runs anything else of the topology;
// detached, the children flow independently but hold the topology open
// until they drain. It reports whether joined children started, and then
// returns one of them for this worker to continue with; false means the
// caller completes n itself (detached, or g has no source).
func (t *topology) spawn(ctx executor.Context, n *node, g *graph, joined bool) (*node, bool) {
	ctx.Trace(executor.EvSubflowSpawn, n.ref(), uint64(g.len()))
	n.ext.detached = !joined
	var parent *node
	if joined {
		parent = n
		ctx.Settle()
	}
	nsrc := 0
	var readyNs int64
	if t.lat != nil {
		readyNs = ctx.EndStamp()
	}
	g.topo = t
	compile := g.compiling()
	for _, c := range g.nodes {
		c.parent = parent
		if compile {
			c.fused = c.fusable()
			g.mark(c)
		}
		c.join.Store(c.numDependents)
		if c.isSource() {
			nsrc++
			if t.lat != nil {
				c.readyAtNs = readyNs
			}
		}
	}
	if nsrc == 0 {
		t.addErr(ErrNoSource)
		return nil, false
	}
	if compile {
		// Every path is laid before the first source is published.
		for _, c := range g.nodes {
			g.lay(c)
		}
	}
	// Pre-count all sources before submitting any, so an early-finishing
	// child cannot observe a transiently zero counter.
	t.pending.Add(int64(nsrc))
	if parent != nil {
		parent.children.Store(int32(nsrc))
	}
	// Detached, every source goes out (a next in hand keeps handOver from
	// holding one back): the caller completes n, and this worker continues
	// with what that releases.
	next := n
	if joined {
		next = nil
	}
	srcs := t.ready[ctx.WorkerID()].nodes[:0]
	for _, c := range g.nodes {
		if !c.isSource() {
			continue
		}
		if len(srcs) == releaseChunk {
			next = t.handOver(ctx, next, srcs)
			srcs = srcs[:0]
		}
		srcs = append(srcs, c)
	}
	next = t.handOver(ctx, next, srcs)
	if !joined {
		return nil, false
	}
	return next, true
}

// released is what one completion made ready: the first, which the worker
// may continue with, and the rest, gathered in the worker's scratch
// (topology.ready) from the second on.
type released struct {
	first *node
	rest  []*node
}

// finishNode completes an execution of n: take one dependency off each
// strong successor, settle, hand over those that released — all but one,
// which it returns for this worker to continue with.
func (t *topology) finishNode(ctx executor.Context, n *node) *node {
	var rs released
	for _, s := range n.inlineSuccs() {
		t.notifySucc(ctx, n, s, &rs)
	}
	for _, s := range n.succSpill {
		t.notifySucc(ctx, n, s, &rs)
	}
	return t.complete(ctx, n, rs)
}

// notifySucc takes one dependency off s on behalf of the finishing node
// src and, when that was s's last, adds s to the released set rs. A
// successor with one strong predecessor skips its join counter: src is the
// last arriver by construction, and the counter stays armed. A full scratch
// goes out first, charged whole: src keeps its own unit, for whether
// anything follows is not known yet, and rs.first stays for the end.
func (t *topology) notifySucc(ctx executor.Context, src, s *node, rs *released) {
	if s.numDependents != 1 && s.join.Add(-1) != 0 {
		return
	}
	t.arm(ctx, src, s)
	switch {
	case rs.first == nil:
		rs.first = s
		return
	case rs.rest == nil:
		rs.rest = t.ready[ctx.WorkerID()].nodes[:0]
	case len(rs.rest) == releaseChunk:
		t.settle(ctx, src, releaseChunk)
		t.handOver(ctx, rs.first, rs.rest)
		rs.rest = rs.rest[:0]
	}
	rs.rest = append(rs.rest, s)
}

// arm prepares the execution of s that src just released: the release is
// traced along the edge that gated s this run (drawn as a flow arrow), the
// join counter re-armed for a later iteration or run — one that a single
// strong predecessor releases was never taken down — and the wait clock
// set.
func (t *topology) arm(ctx executor.Context, src, s *node) {
	ctx.Trace(executor.EvDepRelease, src.ref(), s.traceID)
	if s.numDependents != 1 {
		s.join.Store(s.numDependents)
	}
	if t.lat != nil {
		s.readyAtNs = ctx.EndStamp()
	}
}

// complete ends an execution of n that released rs: the counts move by the
// net first, then the worker gets them (see topology), and the one it
// continues with is returned.
func (t *topology) complete(ctx executor.Context, n *node, rs released) *node {
	if f := t.flow; f != nil {
		f.NoteExecuted(1)
	}
	// The net is the released count less the one n's unit passes to.
	next, delta := rs.first, len(rs.rest)
	if next == nil {
		delta = -1
	}
	if delta != 0 {
		if p := t.settle(ctx, n, delta); p != nil {
			return p
		}
	}
	if next != nil && !t.admitted(ctx, next) {
		next = nil
	}
	if len(rs.rest) > 0 {
		next = t.handOver(ctx, next, rs.rest)
	}
	return next
}

// settle moves the outstanding-execution counts — pending, and a joined
// subflow parent's children — by delta on behalf of n. Only a negative
// delta can take one to zero, completing the parent or the topology, and it
// means n handed this worker nothing to go on with: the worker settles its
// records first (Context.Settle), so that whoever the zero releases finds
// those of every execution. An execution that did hand something over
// leaves that to the execution it continues with. A parent completed here
// hands its one next execution back, for n's worker to continue with.
func (t *topology) settle(ctx executor.Context, n *node, delta int) *node {
	if delta < 0 {
		ctx.Settle()
	}
	var next *node
	if p := n.parent; p != nil && p.children.Add(int32(delta)) == 0 {
		ctx.Trace(executor.EvSubflowJoin, p.ref(), 0)
		p.ext.subgraph.composing.Store(false) // a Composed task's claim (compose)
		next = t.finishNode(ctx, p)
	}
	if t.pending.Add(int64(delta)) == 0 {
		t.finish()
	}
	return next
}

// admitted reports whether s, released and settled, may run now. One that
// must wait for a semaphore is parked instead, for whichever worker frees
// the semaphore to pick up: nothing says this one runs it, so the worker's
// records go out first.
func (t *topology) admitted(ctx executor.Context, s *node) bool {
	return !s.hasAcquires() || t.settleAndAdmit(ctx, s)
}

// settleAndAdmit is admitted's path for a node with semaphores to take.
func (t *topology) settleAndAdmit(ctx executor.Context, s *node) bool {
	ctx.Settle()
	return t.admit(ctx, s)
}

// handOver publishes released, already settled executions onto the
// worker's deque as one batch with one computed wake count — but for one,
// which it returns for the worker to continue with when next is nil.
// Semaphores park the executions that must wait for them.
func (t *topology) handOver(ctx executor.Context, next *node, rest []*node) *node {
	var batch []*executor.Runnable
	for _, s := range rest {
		switch {
		case !t.admitted(ctx, s):
		case next == nil:
			next = s
		case batch == nil:
			batch = append(t.ready[ctx.WorkerID()].refs[:0], s.ref())
		default:
			batch = append(batch, s.ref())
		}
	}
	if len(batch) > 0 {
		ctx.SubmitBatch(batch)
	}
	return next
}
