package core

// One way to launch a graph. Run (Cpp-Taskflow's executor.run(taskflow, N)
// steady-state mode) and Dispatch (paper Listing 6) differ only in what
// they keep: Run caches a reusable topology for the present graph and
// blocks; Dispatch moves the graph into a one-shot topology and returns a
// Future. Both build their run state with newTopology and start it with
// launch, so admission, the context watcher, the sweep, ready stamping and
// source submission exist once. Because every node carries its own
// intrusive task slot and the reusable topology keeps its source batch,
// steady-state re-runs allocate nothing — as long as the graph uses no
// context/deadline features, which by nature materialize a fresh context
// per run.

import (
	"context"

	"gotaskflow/internal/executor"
)

// Run executes the present graph once and blocks until it finishes,
// returning every captured task error joined (panics are converted). The
// graph is NOT consumed: calling Run again re-executes it, and
// steady-state re-runs of an unchanged graph are allocation-free. Any
// builder edit between runs is allowed — Emplace*, Placeholder, Composed,
// Precede/Succeed, Acquire/Release, Retry, Work/WorkCondition — also after
// a Composed parent ran the graph: it marks the run state stale, and the
// next Run rebuilds it (sources, fused links and dense paths) once. Mixing
// Run with Dispatch is allowed (Dispatch consumes the graph as usual). Run
// must not be called concurrently with itself or with graph construction.
func (tf *Taskflow) Run() error {
	return tf.run(nil)
}

// RunContext is Run bound to ctx: when ctx is cancelled or its deadline
// expires mid-run, the topology is cooperatively cancelled — tasks that
// have not started are skipped, the graph drains, and the returned error
// includes ctx.Err(). Context-aware tasks observe the cancellation through
// their body context. A ctx that is already done fails the run without
// executing anything.
func (tf *Taskflow) RunContext(ctx context.Context) error {
	return tf.run(ctx)
}

// RunN executes the present graph n times sequentially, stopping at the
// first error.
func (tf *Taskflow) RunN(n int) error {
	for i := 0; i < n; i++ {
		if err := tf.Run(); err != nil {
			return err
		}
	}
	return nil
}

func (tf *Taskflow) run(ctx context.Context) error {
	if tf.runStale() {
		t, err := tf.newTopology(tf.g, true)
		if err != nil {
			tf.runTopo = nil
			return err
		}
		tf.runTopo = t
	}
	t := tf.runTopo
	if err := t.launch(ctx); err != nil {
		return err
	}
	<-t.done
	return t.joinedErr()
}

// runStale reports whether the cached run state does not fit the present
// graph: there is none, it was built for another graph, or the graph was
// edited since (graph.edits).
func (tf *Taskflow) runStale() bool {
	t := tf.runTopo
	return t == nil || t.graph != tf.g || t.edits != tf.g.edits
}

// newTopology builds the run state of g: reusable for Run, one-shot for
// Dispatch. It charges nothing and submits nothing. The error says why g
// can never start — no source, or a strong cycle behind the sources — and
// comes with the topology all the same, so a Future has one to resolve.
func (tf *Taskflow) newTopology(g *graph, reusable bool) (*topology, error) {
	t := &topology{
		graph:    g,
		exec:     tf.exec,
		out:      tf.exec,
		flow:     tf.flow,
		reusable: reusable,
		edits:    g.edits,
		flowName: tf.name,
		ready:    make([]releaseScratch, tf.exec.NumWorkers()),
	}
	if reusable {
		t.done = make(chan struct{}, 1)
	} else {
		t.done = make(chan struct{})
	}
	if f := tf.flow; f != nil {
		t.out, t.flowReserved = f, g.len()
	}
	if e, ok := tf.exec.(*executor.Executor); ok {
		t.lat = e.LatencySink(tf.flow)
		t.quiet = e.Quiet() && t.flow == nil
	}
	if tf.statsEnabled {
		t.stats = newTopoStats(tf)
	}
	t.timed = t.lat != nil || (tf.statsEnabled && tf.statsTiming)
	nsrc, nsem := 0, 0
	ordered, dynamic := true, false
	compile := g.compiling()
	for _, n := range g.nodes {
		switch n.work.(type) {
		case func() int:
			t.hasCond = true
		case func(*Subflow), *Taskflow:
			dynamic = true
		}
		ordered = ordered && n.forward()
		if compile {
			n.fused = n.fusable()
			g.mark(n)
		}
		if n.isSource() {
			nsrc++
			if n.hasAcquires() {
				nsem++
			}
		}
	}
	// A condition task may run a node any number of times, and a dynamic
	// task may spawn a graph that outlives the run (Composed), whose nodes
	// it may run under conditions of its own, or twice. A one-shot
	// topology is swept at its only launch anyway.
	t.sumNodeStats = t.stats != nil && (t.hasCond || dynamic || !reusable)
	if nsrc == 0 && g.len() > 0 {
		return t, ErrNoSource
	}
	// A strong cycle behind the sources would never drain; refuse it with
	// a descriptive error instead of deadlocking the waiters. Edges that all
	// follow emplace order cannot close one (findCycleError).
	if !ordered {
		if _, err := kahn(g); err != nil {
			return t, err
		}
	}
	t.sources = make([]*executor.Runnable, 0, nsrc-nsem)
	if nsem > 0 {
		t.semSources = make([]*node, 0, nsem)
	}
	for _, n := range g.nodes {
		if compile {
			g.lay(n)
		}
		switch {
		case !n.isSource():
		case n.hasAcquires():
			t.semSources = append(t.semSources, n)
		default:
			t.sources = append(t.sources, n.ref())
		}
	}
	return t, nil
}

// launch starts one execution of t bound to ctx (nil: none). A returned
// error means nothing started and nothing was charged: ctx was already
// done, or t's flow refused the admission.
func (t *topology) launch(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Admission control: a flow-bound execution reserves the graph's task
	// count; finish returns it before signalling done. Admit is
	// all-or-nothing, so a refusal (quota, watermark, shutdown) charged
	// nothing — the caller owns the retry/backoff policy.
	if f := t.flow; f != nil {
		if err := f.Admit(t.flowReserved); err != nil {
			return err
		}
	}

	// Per-execution reset. A reusable topology advances its generation so
	// a deadline callback left over from a previous run cannot cancel this
	// one. The derived context starts fresh: from ctx here, else from the
	// first ctx task that asks (taskContext).
	t.errMu.Lock()
	t.errs = t.errs[:0]
	gen := t.gen.Load()
	if t.reusable {
		gen = t.gen.Add(1)
	}
	t.ctx, t.cancelCtx = nil, nil
	if ctx != nil {
		t.ctx, t.cancelCtx = context.WithCancel(ctx)
	}
	t.errMu.Unlock()
	t.cancelled.Store(false)
	t.stopWatch = nil
	if ctx != nil && ctx.Done() != nil {
		t.stopWatch = context.AfterFunc(ctx, func() { t.cancelWith(gen, ctx.Err()) })
	}

	if t.mustSweep() {
		t.graph.topo = t
		for _, n := range t.graph.nodes {
			n.parent = nil
			n.join.Store(n.numDependents)
			if t.stats != nil {
				n.execCount, n.execDurNs = 0, 0
			}
		}
	}
	if t.stats != nil {
		t.stats.reset()
	}
	if t.lat != nil {
		// Sources are ready now; the rest are stamped when released.
		readyNs := executor.Nanos()
		for _, r := range t.sources {
			(*r).(*node).readyAtNs = readyNs
		}
		for _, n := range t.semSources {
			n.readyAtNs = readyNs
		}
	}
	// pending counts outstanding executions; sources are pre-counted before
	// submission so no execution can retire against a zero count.
	nsrc := int64(len(t.sources) + len(t.semSources))
	if nsrc == 0 { // the empty graph
		t.finish()
		return nil
	}
	t.pending.Store(nsrc)

	// Semaphore-guarded sources are admitted or parked individually (rare
	// path); the rest start as one batch. A submission the shut-down
	// scheduler rejected undoes its pending charge, so the execution
	// completes with the error instead of hanging (finish also returns the
	// flow reservation, exactly once).
	for _, n := range t.semSources {
		if t.admit((*offPool)(t), n) {
			if err := t.out.Submit(n.ref()); err != nil {
				t.undoSubmit(err, 1)
			}
		}
	}
	if err := t.out.SubmitBatch(t.sources); err != nil {
		t.undoSubmit(err, len(t.sources))
	}
	return nil
}

// undoSubmit records a rejected submission of k executions and takes them
// off pending.
func (t *topology) undoSubmit(err error, k int) {
	t.addErr(err)
	if t.pending.Add(-int64(k)) == 0 {
		t.finish()
	}
}

// mustSweep reports whether a launch of t has to re-arm every node of its
// graph first. The release that takes a join counter to zero re-arms it,
// and with run stats an execution overwrites its node's counters, so a run
// in which every node executed — failed and cancelled ones included:
// skipped nodes still drain the structure — leaves them all armed and
// accounted, and the serial O(n) sweep, made while every worker idles, is
// skipped. It is kept where counters can be short — the graph has not run
// under t (it is new, or a Composed parent ran the graph since) or a
// condition task may leave a branch untaken — and where executions add to
// their node's counters (topology.sumNodeStats).
func (t *topology) mustSweep() bool {
	return t.hasCond || t.sumNodeStats || t.graph.len() == 0 || t.graph.topo != t
}
