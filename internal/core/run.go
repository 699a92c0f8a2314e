package core

// Synchronous re-run support — the Go counterpart of Cpp-Taskflow's
// executor.run(taskflow, N) steady-state mode. Unlike Dispatch, Run does
// not consume the present graph: the same graph executes again and again,
// which is the shape of iterative workloads (timing propagation sweeps,
// training epochs, simulation steps). Because every node carries its own
// intrusive task slot and the reusable topology and source batch are built
// once, steady-state re-runs allocate nothing — as long as the graph uses
// no context/deadline features, which by nature materialize a fresh
// context per run.

import (
	"context"

	"gotaskflow/internal/executor"
)

// Run executes the present graph once and blocks until it finishes,
// returning every captured task error joined (panics are converted). The
// graph is NOT consumed: calling Run again re-executes it, and
// steady-state re-runs of an unchanged graph are allocation-free. Adding
// tasks between runs is allowed (the run state is rebuilt); mixing Run
// with Dispatch is allowed (Dispatch consumes the graph as usual). Run
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
	if err := ctx.Err(); err != nil {
		return err
	}
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
	g := tf.present
	if g.len() == 0 {
		return nil
	}
	t := tf.runTopo
	if t == nil || t.graph != g || len(tf.runSources)+len(tf.runSemSources) == 0 ||
		tf.runStale() {
		var err error
		if t, err = tf.prepareRun(); err != nil {
			return err
		}
	}

	// Admission control: a flow-bound run reserves the graph's task count
	// for the duration of this run; finish returns it before signalling
	// done. A refused run (quota, watermark, shutdown) charged nothing and
	// executed nothing — the caller owns the retry/backoff policy.
	if f := t.flow; f != nil {
		if err := f.Admit(t.flowReserved); err != nil {
			return err
		}
	}

	// Per-run reset. The run generation advances so a deadline callback
	// left over from a previous run cannot cancel this one, and a fresh
	// derived context is materialized when ctx tasks or a caller context
	// need one.
	t.errMu.Lock()
	t.errs = t.errs[:0]
	gen := t.gen.Add(1)
	t.ctx, t.cancelCtx = nil, nil
	if t.hasCtx || ctx != nil {
		parent := ctx
		if parent == nil {
			parent = context.Background()
		}
		t.ctx, t.cancelCtx = context.WithCancel(parent)
	}
	t.errMu.Unlock()
	t.cancelled.Store(false)

	var stopWatch func() bool
	if ctx != nil && ctx.Done() != nil {
		stopWatch = context.AfterFunc(ctx, func() { t.cancelWith(gen, ctx.Err()) })
	}

	statsOn := t.stats != nil
	if tf.mustSweep(t) {
		for _, n := range g.nodes {
			n.topo = t
			n.parent = nil
			n.join.Store(n.numDependents)
			if statsOn {
				n.execCount.Store(0)
				n.execDurNs.Store(0)
			}
		}
	}
	if statsOn {
		t.stats.reset()
	}
	if t.lat != nil {
		// Sources are ready now; the rest are stamped when released.
		readyNs := executor.Nanos()
		for _, r := range tf.runSources {
			(*r).(*node).readyAtNs = readyNs
		}
		for _, n := range tf.runSemSources {
			n.readyAtNs = readyNs
		}
	}
	t.pending.Store(int64(len(tf.runSources) + len(tf.runSemSources)))

	// Semaphore-guarded sources are admitted or parked individually (rare
	// path); the rest start as one batch.
	for _, n := range tf.runSemSources {
		if t.admit(t.sub, n) {
			if err := t.submitOne(n.ref()); err != nil {
				t.addErr(err)
				if t.pending.Add(-1) == 0 {
					t.finish()
				}
			}
		}
	}
	if err := t.submitBatch(tf.runSources); err != nil {
		// The executor was already shut down: the batch was rejected
		// whole. Undo its pending charge so the run completes with the
		// error instead of hanging.
		t.addErr(err)
		if t.pending.Add(-int64(len(tf.runSources))) == 0 {
			t.finish()
		}
	}
	<-t.done
	if stopWatch != nil {
		stopWatch()
	}
	return t.joinedErr()
}

// mustSweep reports whether a run under t has to re-arm every node of the
// present graph first. The release that takes a join counter to zero
// re-arms it, and with run stats an execution overwrites its node's
// counters, so a run in which every node executed — failed and cancelled
// ones included: skipped nodes still drain the structure — leaves them all
// armed and accounted, and the serial O(n) sweep, made while every worker
// idles, is skipped. It is kept where counters can be short — the nodes
// have not run under t (it is new, or a Composed parent ran the graph
// since) or a condition task may leave a branch untaken — and where
// executions add to their node's counters (topology.sumNodeStats).
func (tf *Taskflow) mustSweep(t *topology) bool {
	return t.hasCond || t.sumNodeStats || tf.present.nodes[0].topo != t
}

// runStale reports whether tasks or edges (node.precede) were added to the
// present graph since the run state was built.
func (tf *Taskflow) runStale() bool {
	return tf.runTopo == nil || tf.runTopo.builtLen != tf.present.len()
}

// prepareRun (re)builds the reusable topology and the pre-partitioned
// source lists for the present graph, refusing strongly cyclic graphs.
func (tf *Taskflow) prepareRun() (*topology, error) {
	g := tf.present
	t := &topology{
		graph:       g,
		exec:        tf.exec,
		reusable:    true,
		done:        make(chan struct{}, 1),
		builtLen:    g.len(),
		flowName:    tf.name,
		pprofLabels: tf.pprofLabels,
		ready:       make([][releaseChunk]*executor.Runnable, tf.exec.NumWorkers()),
	}
	t.sub = execSubmitter{tf.exec}
	if f := tf.flow; f != nil {
		t.flow = f
		t.flowReserved = g.len()
		t.sub = flowSubmitter{f}
	}
	if lp, ok := tf.exec.(executor.LatencyProvider); ok {
		t.lat = lp.LatencySink(tf.flow)
	}
	if tf.statsEnabled {
		t.stats = newTopoStats(tf)
	}
	t.timed = t.lat != nil || (tf.statsEnabled && tf.statsTiming)
	tf.runSources = tf.runSources[:0]
	tf.runSemSources = tf.runSemSources[:0]
	ordered, dynamic := true, false
	for _, n := range g.nodes {
		t.hasCtx = t.hasCtx || n.ctxWork != nil
		t.hasCond = t.hasCond || n.condWork != nil
		dynamic = dynamic || n.subflowWork != nil
		ordered = ordered && n.forward()
		if !n.isSource() {
			continue
		}
		if n.hasAcquires() {
			tf.runSemSources = append(tf.runSemSources, n)
		} else {
			tf.runSources = append(tf.runSources, n.ref())
		}
	}
	if len(tf.runSources)+len(tf.runSemSources) == 0 {
		tf.invalidateRun()
		return nil, ErrNoSource
	}
	// A condition task may run a node any number of times, and a dynamic
	// task may splice in a graph that outlives the run (Composed), whose
	// nodes it may run under conditions of its own, or twice.
	t.sumNodeStats = t.stats != nil && (t.hasCond || dynamic)
	if !ordered {
		if _, err := kahn(g); err != nil {
			tf.invalidateRun()
			return nil, err
		}
	}
	tf.runTopo = t
	return t, nil
}

// invalidateRun drops the cached run state (the present graph moved or
// changed shape).
func (tf *Taskflow) invalidateRun() {
	tf.runTopo = nil
	tf.runSources = tf.runSources[:0]
	tf.runSemSources = tf.runSemSources[:0]
}
