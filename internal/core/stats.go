package core

// Run-level profiles: a per-run RunStats computed at topology finish — the
// counters that pair with the executor's scheduler metrics
// (internal/executor WithMetrics) to answer "what did this run actually
// do": how many task executions, how long the critical path was, how much
// parallelism the graph offered and how much the workers achieved.
//
// Collection is opt-in (Taskflow.CollectRunStats) and allocation-free in
// steady state: the counters live on the reusable topology and on the
// nodes themselves, pre-allocated with the graph, and are reset — not
// reallocated — on every run. TestRunZeroAllocMetricsEnabled gates this.
// The two counters every execution moves are plain words, one pair per
// worker, summed when read: every reader comes after the done signal, and
// the completion counters already order every execution before it.

import (
	"sort"
	"sync/atomic"
	"time"

	"gotaskflow/internal/executor"
)

// RunStats summarizes one completed run (Taskflow.Run) or one dispatched
// topology (Future.Stats) when stats collection is enabled.
type RunStats struct {
	// Tasks counts task-body executions, including retry attempts and
	// condition-loop iterations. For a plain DAG it equals the graph size
	// (plus any spawned subflow nodes) — the exactly-once property the
	// randomized-DAG tests assert.
	Tasks int64
	// Retries counts failed executions that were rescheduled by a
	// Task.Retry policy.
	Retries int64
	// Skipped counts executions whose body was skipped by cooperative
	// cancellation while the dependency structure drained.
	Skipped int64
	// Errors is the number of captured failures; Cancelled reports whether
	// the run was cancelled (by Cancel, fail-fast, or deadline).
	Errors    int
	Cancelled bool

	// Span is the length (in tasks) of the longest strong-edge dependency
	// chain of the static graph — the critical path assuming unit task
	// cost. Condition edges are weak and excluded; spawned subflow nodes
	// are counted in Tasks but not in Span.
	Span int
	// Parallelism is Tasks/Span: the average work available per critical-
	// path step (the work/span ratio with unit task cost).
	Parallelism float64

	// Wall is the run's wall-clock time, measured from submission to
	// quiescence.
	Wall time.Duration
	// Busy is the summed task-body execution time across workers; zero
	// unless CollectRunStats was given timing=true.
	Busy time.Duration
	// AchievedParallelism is Busy/Wall — the mean number of workers
	// actually inside task bodies; zero without timing.
	AchievedParallelism float64

	// HotTasks ranks the run's tasks by self time (top-hotTaskK), using
	// the same display names as DOT dumps and trace spans (task name, or
	// the positional p<hex> fallback). Empty unless CollectRunStats was
	// given timing=true. Spawned subflow tasks are included.
	HotTasks []HotTask
}

// HotTask is one entry of RunStats.HotTasks: a task's display name with
// its execution count and summed body duration for the run.
type HotTask struct {
	Name  string
	Count uint64
	Total time.Duration
}

// hotTaskK is the hot-task ranking depth.
const hotTaskK = 5

// topoStats is the mutable per-run counter block attached to a topology
// when stats collection is on. Reset (never reallocated) at the start of
// each reusable run.
type topoStats struct {
	workers []workerRunStats
	retries atomic.Int64
	skipped atomic.Int64

	timing  bool
	startNs int64 // executor.Nanos at submission; 0 until the first run
	// wall is written by the finishing worker in topology.finish and read
	// by waiters after the done signal (the channel provides the
	// happens-before edge).
	wall time.Duration
}

// workerRunStats is one worker's share of a run's counters, written by that
// worker alone: body executions and, with timing, their summed duration.
// Padded so that two workers' words never share a cache line.
type workerRunStats struct {
	tasks  int64
	busyNs int64
	_      [128 - 2*8]byte
}

func newTopoStats(tf *Taskflow) *topoStats {
	return &topoStats{timing: tf.statsTiming, workers: make([]workerRunStats, tf.exec.NumWorkers())}
}

func (st *topoStats) reset() {
	clear(st.workers)
	st.retries.Store(0)
	st.skipped.Store(0)
	st.startNs = executor.Nanos()
	st.wall = 0
}

// CollectRunStats enables per-run statistics for subsequent Run and
// Dispatch calls: execution/retry/skip counts, wall time, and per-node
// execution counts (read by DumpAnnotated). With timing=true, per-task
// durations are also captured — from the worker's clock readings at the
// task's two boundaries, shared with its trace events and histogram record —
// populating RunStats.Busy/AchievedParallelism and the durations in
// annotated dumps. Collection stays allocation-free in steady state.
// Returns tf for chaining.
func (tf *Taskflow) CollectRunStats(timing bool) *Taskflow {
	tf.statsEnabled = true
	tf.statsTiming = timing
	tf.runTopo = nil // the cached run state predates the stats block
	return tf
}

// LastRunStats returns the statistics of the most recent completed Run.
// ok is false when CollectRunStats was not enabled or no Run has finished
// since. Must not be called concurrently with Run.
func (tf *Taskflow) LastRunStats() (RunStats, bool) {
	t := tf.runTopo
	if t == nil || t.stats == nil || t.stats.startNs == 0 {
		return RunStats{}, false
	}
	return t.runStats(), true
}

// Stats returns the statistics of a finished dispatched topology. ok is
// false when stats collection was not enabled at dispatch time, the
// topology has not finished yet, or Taskflow.Reclaim took its graph back.
func (f *Future) Stats() (RunStats, bool) {
	t := f.t
	if t.stats == nil || t.graph == nil {
		return RunStats{}, false
	}
	select {
	case <-t.done:
	default:
		return RunStats{}, false
	}
	return t.runStats(), true
}

// runStats assembles the RunStats view of the topology's counter block. A
// graph that ran has no strong cycle, so kahn returns only its span.
func (t *topology) runStats() RunStats {
	st := t.stats
	span, _ := kahn(t.graph)
	rs := RunStats{
		Retries:   st.retries.Load(),
		Skipped:   st.skipped.Load(),
		Cancelled: t.cancelled.Load(),
		Span:      span,
		Wall:      st.wall,
	}
	for i := range st.workers {
		rs.Tasks += st.workers[i].tasks
		rs.Busy += time.Duration(st.workers[i].busyNs)
	}
	t.errMu.Lock()
	rs.Errors = len(t.errs)
	t.errMu.Unlock()
	if span > 0 {
		rs.Parallelism = float64(rs.Tasks) / float64(span)
	}
	if rs.Wall > 0 && rs.Busy > 0 {
		rs.AchievedParallelism = float64(rs.Busy) / float64(rs.Wall)
	}
	if st.timing {
		rs.HotTasks = hotTasks(t.graph, hotTaskK)
	}
	return rs
}

// hotTasks ranks the graph's tasks (including spawned subflow tasks) by
// recorded self time, descending, returning at most k entries. Names
// follow node.label: the assigned name or the positional p<hex> fallback,
// so the ranking, the DOT dump and the trace timeline agree.
func hotTasks(g *graph, k int) []HotTask {
	var out []HotTask
	var walk func(*graph)
	walk = func(g *graph) {
		for _, n := range g.nodes {
			if d := n.execDurNs.Load(); d > 0 {
				out = append(out, HotTask{
					Name:  n.label(int(n.idx)),
					Count: n.execCount.Load(),
					Total: time.Duration(d),
				})
			}
			if sg := n.spawned(); sg != nil {
				walk(sg)
			}
		}
	}
	walk(g)
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	if len(out) > k {
		out = out[:k]
	}
	return out
}
