// Package stav2 is the OpenTimer-v2-style timing driver of the
// Cpp-Taskflow paper (Section IV-B): every timing update creates and
// launches a fresh task dependency graph over the affected cone, wired by
// the cone-internal dependencies, and dispatches it to the shared
// work-stealing executor. Computations flow naturally and asynchronously
// with the timing graph instead of marching through level barriers, which is
// where v2's speedup over v1 comes from.
//
// A task is a slice of one logic level of the cone: gates of a level do not
// depend on each other, so a level wider than the pool can use is cut into
// at most four slices per worker (the rule core's ParallelFor partitions
// by), each relaxing its gates in the order the update lists them, and an
// edge joins two slices when any gate of one feeds a gate of the other. A level no wider than that
// gets one task per gate, so a pool of a quarter of the widest level's
// workers or more runs the paper's graph, one task per gate propagation; a
// small pool runs the same propagations in tasks big enough to be worth
// scheduling. This is the one place the driver departs from the paper.
package stav2

import (
	"slices"

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

	// level is each gate's logic level in the whole netlist: 0 without
	// fan-in, else one above its deepest fan-in. Computed once — design
	// modifiers never change topology — so an update levelizes its cone by
	// sorting, not by walking it. perLevel caps the slices a level is cut
	// into; count is the sort's per-level scratch, zero between uses.
	level    []int32
	perLevel int32
	count    []int32

	// The update under construction, by slice ordinal k — forward slices by
	// ascending level, then backward slices by descending level: tasks[k]
	// relaxes cone[start[k]:start[k+1]] in that order. The bodies fwd[k]
	// and bwd[k] are made once per ordinal and read cone and start when
	// they run, so the two are rewritten only after Reclaim has seen the
	// previous graph through.
	cone     []int32
	start    []int32
	tasks    []core.Task
	fwd, bwd []func()

	// Edge wiring's scratch. sliceOf[v] is the ordinal + 1 of the slice
	// holding gate v in the pass being wired (0: not in its cone), zero
	// between passes. linked[j] is the ordinal + 1 of the slice an edge with
	// slice j was last wired from: many cone edges, one slice edge.
	sliceOf []int32
	linked  []int32

	// bwdName caches each gate's backward display name, made the first time
	// a backward slice starts at the gate.
	bwdName []string
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
	a := &Analyzer{
		T:        t,
		exec:     e,
		tf:       core.NewShared(e).SetName("timing_update"),
		level:    make([]int32, n),
		perLevel: int32(4 * e.NumWorkers()),
		sliceOf:  make([]int32, n),
		bwdName:  make([]string, n),
	}
	// Index order is topological (circuit.Generate and ParseVerilog
	// guarantee it): when the sweep reaches v, every fan-in of v has
	// already pushed its level up.
	depth := int32(0)
	off, adj := t.Fanouts()
	for v := range a.level {
		depth = max(depth, a.level[v])
		for _, w := range adj[off[v]:off[v+1]] {
			a.level[w] = max(a.level[w], a.level[v]+1)
		}
	}
	a.count = make([]int32, depth+1)
	return a
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
// and wait for. The graph has one task per level slice of each cone plus
// the barrier, at most u.NumTasks()+1 nodes: exactly that many, a task per
// gate propagation, when no level of either cone is wider than four gates
// per worker. A task carries the name of the first gate it relaxes.
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
	tf := a.tf
	_ = tf.Reclaim() // an earlier update's failure belongs to its own waiter

	a.cone, a.start = a.cone[:0], a.start[:0]
	a.slice(u.Fwd, false)
	nFwd := len(a.start)
	a.slice(u.Bwd, true)
	n := len(a.start)
	a.start = append(a.start, int32(len(a.cone)))
	for len(a.tasks) < n {
		a.tasks, a.linked = append(a.tasks, core.Task{}), append(a.linked, 0)
		a.fwd, a.bwd = append(a.fwd, nil), append(a.bwd, nil)
	}
	clear(a.linked[:n])

	// Forward slices, the barrier, backward slices: every edge wired below
	// leads to a task emplaced later, which is dispatch's proof that the
	// graph is acyclic.
	t, g := a.T, a.T.Ckt.Gates
	for k := 0; k < nFwd; k++ {
		if a.fwd[k] == nil {
			a.fwd[k] = func() {
				for _, v := range a.cone[a.start[k]:a.start[k+1]] {
					t.RelaxForward(int(v))
				}
			}
		}
		a.tasks[k] = tf.Emplace1(a.fwd[k]).Name(g[a.cone[a.start[k]]].Name)
	}
	// The backward pass consumes delays produced anywhere in the forward
	// cone. Wiring the forward sinks suffices — every forward task reaches
	// one — and the backward sources reach every backward task.
	barrier := tf.Placeholder().Name("fwd_bwd_barrier")
	for k := nFwd; k < n; k++ {
		if a.bwd[k] == nil {
			a.bwd[k] = func() {
				for _, v := range a.cone[a.start[k]:a.start[k+1]] {
					t.RelaxBackward(int(v))
				}
			}
		}
		v := a.cone[a.start[k]]
		if a.bwdName[v] == "" {
			a.bwdName[v] = g[v].Name + "'"
		}
		a.tasks[k] = tf.Emplace1(a.bwd[k]).Name(a.bwdName[v])
	}
	a.wire(0, nFwd, barrier, true)
	a.wire(nFwd, n, barrier, false)
}

// slice appends gates to a.cone sorted by level — descending for the
// backward pass — and the start of every slice to a.start. The sort is a
// stable counting sort, so a level keeps the order gates lists it in.
func (a *Analyzer) slice(gates []int, descending bool) {
	count := a.count
	for _, v := range gates {
		count[a.level[v]]++
	}
	pos := int32(len(a.cone))
	a.cone = slices.Grow(a.cone, len(gates))[:len(a.cone)+len(gates)]
	for i := range count {
		l := i
		if descending {
			l = len(count) - 1 - i
		}
		width := count[l]
		if width == 0 {
			continue
		}
		count[l] = pos // from here on, where the level's next gate goes
		per := (width + a.perLevel - 1) / a.perLevel
		for o := int32(0); o < width; o += per {
			a.start = append(a.start, pos+o)
		}
		pos += width
	}
	for _, v := range gates {
		l := a.level[v]
		a.cone[count[l]] = int32(v)
		count[l]++
	}
	clear(count)
}

// wire adds the edges of slices [lo, hi), one pass's, visiting each slice's
// fan-out: a forward slice precedes every slice holding a cone fan-out of
// one of its gates, a backward slice succeeds it. A slice with no cone
// fan-out is a forward sink, feeding the barrier, or a backward source,
// hanging off it.
func (a *Analyzer) wire(lo, hi int, barrier core.Task, forward bool) {
	off, adj := a.T.Fanouts()
	cone, start, tasks, sliceOf, linked := a.cone, a.start, a.tasks, a.sliceOf, a.linked
	for k := lo; k < hi; k++ {
		for _, v := range cone[start[k]:start[k+1]] {
			sliceOf[v] = int32(k) + 1
		}
	}
	for k := lo; k < hi; k++ {
		here, mark, alone := tasks[k], int32(k)+1, true
		for _, v := range cone[start[k]:start[k+1]] {
			for _, w := range adj[off[v]:off[v+1]] {
				j := sliceOf[w] - 1
				if j < 0 {
					continue
				}
				alone = false
				if linked[j] == mark {
					continue
				}
				linked[j] = mark
				if forward {
					here.Precede(tasks[j])
				} else {
					tasks[j].Precede(here)
				}
			}
		}
		if alone && forward {
			here.Precede(barrier)
		} else if alone {
			barrier.Precede(here)
		}
	}
	for _, v := range cone[start[lo]:start[hi]] {
		sliceOf[v] = 0
	}
}
