// Package stav2 is the OpenTimer-v2-style timing driver of the
// Cpp-Taskflow paper (Section IV-B): every timing update creates and
// launches a fresh task dependency graph over the affected cone — one task
// per gate propagation, wired by the cone-internal dependencies — and
// dispatches it to the shared work-stealing executor. Computations flow
// naturally and asynchronously with the timing graph instead of marching
// through level barriers, which is where v2's speedup over v1 comes from.
package stav2

import (
	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sta"
)

// Analyzer drives incremental timing updates with per-update taskflows.
type Analyzer struct {
	T    *sta.Timing
	exec *executor.Executor

	// tf builds and launches every update's graph. One Taskflow for the
	// analyzer's lifetime lets each update build in the storage the last
	// one left (core.Taskflow.Reclaim): a graph per update for the price
	// of a re-run.
	tf *core.Taskflow

	// tasks is an n-sized scratch mapping gate -> its task in the update
	// under construction; member tracks cone membership. Allocated once.
	tasks  []core.Task
	member []bool

	// fwd and bwd hold each gate's two propagation closures and bwdName its
	// backward task's display name, made the first time an update reaches
	// the gate and emplaced as they are by every update after.
	fwd, bwd []func()
	bwdName  []string
}

// New creates an analyzer with its own work-stealing executor of the given
// size.
func New(t *sta.Timing, workers int) *Analyzer {
	return NewShared(t, executor.New(workers))
}

// NewShared creates an analyzer on a shared executor (paper Section III-E:
// executors are shareable across modules).
func NewShared(t *sta.Timing, e *executor.Executor) *Analyzer {
	n := t.Ckt.NumGates()
	return &Analyzer{
		T:       t,
		exec:    e,
		tf:      core.NewShared(e).SetName("timing_update"),
		tasks:   make([]core.Task, n),
		member:  make([]bool, n),
		fwd:     make([]func(), n),
		bwd:     make([]func(), n),
		bwdName: make([]string, n),
	}
}

// Close shuts down the executor. Do not call it when the executor is
// shared with other components that are still running.
func (a *Analyzer) Close() { a.exec.Shutdown() }

// NumWorkers returns the executor's worker count.
func (a *Analyzer) NumWorkers() int { return a.exec.NumWorkers() }

// Run applies one timing update by building and dispatching a task
// dependency graph: a forward subgraph over the affected cone, a barrier,
// and a backward subgraph over the required-time cone (paper Figure 8
// shows one such graph). Task failures are returned, not re-panicked.
func (a *Analyzer) Run(u sta.Update) error {
	a.buildTaskflow(u)
	return a.tf.Reclaim()
}

// Taskflow builds the update's task dependency graph without dispatching
// it, for the caller to dump (the examples' Figure-8 graph) or to launch
// and wait for.
//
// The analyzer applies one update at a time, and every call returns the
// same Taskflow: it first waits for whatever that Taskflow still has in
// flight — launching a graph the previous call built and nobody dispatched —
// and takes the finished graphs' storage back for this one, so two updates
// never relax the timer at once. Tasks and Future.Stats of an earlier
// update are dead once the next call begins; a failure of an earlier update
// is reported by the Future of whoever dispatched it, not here.
func (a *Analyzer) Taskflow(u sta.Update) *core.Taskflow {
	a.buildTaskflow(u)
	return a.tf
}

func (a *Analyzer) buildTaskflow(u sta.Update) {
	t := a.T
	g := t.Ckt.Gates
	tf := a.tf
	_ = tf.Reclaim() // an earlier update's failure belongs to its own waiter

	// Forward subgraph: task per cone node, cone-internal fanin edges.
	for _, v := range u.Fwd {
		if a.fwd[v] == nil {
			v := v
			a.fwd[v] = func() { t.RelaxForward(v) }
		}
		a.member[v] = true
		a.tasks[v] = tf.Emplace1(a.fwd[v]).Name(g[v].Name)
	}
	for _, v := range u.Fwd {
		for _, wi := range g[v].Fanout {
			if w := int(wi); a.member[w] {
				a.tasks[v].Precede(a.tasks[w])
			}
		}
	}
	// Barrier: the backward pass consumes delays produced anywhere in the
	// forward cone. Wiring the cone's sinks suffices — every forward task
	// reaches a sink, so the barrier transitively waits for all of them.
	barrier := tf.Placeholder().Name("fwd_bwd_barrier")
	for _, v := range u.Fwd {
		isSink := true
		for _, wi := range g[v].Fanout {
			if a.member[wi] {
				isSink = false
				break
			}
		}
		if isSink {
			a.tasks[v].Precede(barrier)
		}
	}
	for _, v := range u.Fwd {
		a.member[v], a.tasks[v] = false, core.Task{}
	}

	// Backward subgraph: reversed cone edges; its sources hang off the
	// barrier and reach every backward task transitively.
	for _, v := range u.Bwd {
		if a.bwd[v] == nil {
			v := v
			a.bwd[v] = func() { t.RelaxBackward(v) }
			a.bwdName[v] = g[v].Name + "'"
		}
		a.member[v] = true
		a.tasks[v] = tf.Emplace1(a.bwd[v]).Name(a.bwdName[v])
	}
	for _, v := range u.Bwd {
		hasConeFanout := false
		for _, wi := range g[v].Fanout {
			if w := int(wi); a.member[w] {
				a.tasks[w].Precede(a.tasks[v])
				hasConeFanout = true
			}
		}
		if !hasConeFanout {
			barrier.Precede(a.tasks[v])
		}
	}
	for _, v := range u.Bwd {
		a.member[v], a.tasks[v] = false, core.Task{}
	}
}
