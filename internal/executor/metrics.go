package executor

// Scheduler observability: lock-free per-worker counters over the events of
// Algorithm 1 that are otherwise invisible — pushes, pops, steals, task-cache
// hits, parks, wakeups, injection-queue traffic.
//
// The design rules:
//
//   - Provably zero cost when disabled. Counting is enabled only by the
//     WithMetrics option; every instrumentation point is a single
//     predictable nil check on a per-worker pointer, and nothing is
//     allocated or published when metrics are off. The zero-allocation
//     gates in internal/core run with this file compiled in.
//
//   - Allocation-free when enabled. All counter storage is allocated once
//     at executor construction (padded per worker against false sharing);
//     the steady state performs only uncontended atomic adds on
//     worker-private cache lines. A dedicated gate
//     (TestRunZeroAllocMetricsEnabled) enforces 0 allocs/op with counting
//     on.
//
//   - Honest at quiescence. The counters obey conservation laws checked by
//     Snapshot.Reconcile and property-tested end to end against randomized
//     DAGs in internal/core: every task that enters a queue leaves it
//     exactly once, and every executed task was obtained from exactly one
//     place (local pop, steal, injection drain, or the task cache — a
//     continuation).

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"gotaskflow/internal/wsq"
)

// workerMetrics holds the scheduling counters of one worker that the deque
// itself cannot observe. Owner-written except where noted; padded by the
// enclosing array element so adjacent workers never share a cache line.
type workerMetrics struct {
	// stealAttempts counts steal sweeps (Algorithm 1 line 3): one per
	// steal() call, i.e. one pass over last victim, random victims, and the
	// injection queue.
	stealAttempts atomic.Uint64
	// steals counts successful steal operations by this worker: sweeps
	// that came back with at least one task. The first task of each
	// operation runs directly; extras (batch stealing) land on this
	// worker's own deque.
	steals atomic.Uint64
	// stolenTasks counts tasks this worker moved out of other workers'
	// deques, including the extras of batch steals. (The per-deque
	// Counters.Steals counts the stolen-FROM side; Σ stolenTasks ==
	// Σ StolenFrom.)
	stolenTasks atomic.Uint64
	// stealBatches counts steal operations that moved more than one task.
	stealBatches atomic.Uint64
	// injectionDrains counts drain operations on the external injection
	// queue (work sharing): sweeps that came back with at least one task.
	injectionDrains atomic.Uint64
	// injectionDrainedTasks counts tasks this worker took from the
	// injection queue, including the extras of batch drains that were
	// re-pushed onto its own deque.
	injectionDrainedTasks atomic.Uint64
	// cacheHits counts tasks handed to their worker through the task cache
	// (Algorithm 1 lines 16-25) instead of a queue: continuations
	// (Continue). A recording worker adds them in batches (worker.hits).
	cacheHits atomic.Uint64
	// prewaits counts entries into the eventcount's two-phase wait protocol
	// (lines 5-15): each is resolved by exactly one committed park or one
	// cancelled wait.
	prewaits atomic.Uint64
	// waitCancels counts prewaits retracted because the post-announce
	// re-check found work — the near-miss case the two-phase protocol
	// exists for.
	waitCancels atomic.Uint64
	// parks counts committed waits on the eventcount (the worker pushed
	// itself onto the waiter stack; the complement of waitCancels).
	parks atomic.Uint64
	// flowDrains counts drain operations on multi-tenant flow queues
	// (flow.go): sweeps of a priority class that came back with at least
	// one task.
	flowDrains atomic.Uint64
	// flowDrainedTasks counts tasks this worker took from flow queues,
	// including the extras of batch drains re-pushed onto its own deque.
	flowDrainedTasks atomic.Uint64
}

// metricsPad pads the per-worker counter blocks to 128 bytes (two cache
// lines, defeating adjacent-line prefetch sharing).
const metricsPad = 128

type paddedWorkerMetrics struct {
	workerMetrics
	_ [metricsPad - unsafe.Sizeof(workerMetrics{})%metricsPad]byte
}

type paddedDequeCounters struct {
	wsq.Counters
	_ [metricsPad - unsafe.Sizeof(wsq.Counters{})%metricsPad]byte
}

// metricsState is the executor's counter storage, allocated once at
// construction when WithMetrics is given. The injection queue counts its
// own traffic (Queue.Stats), with or without it.
type metricsState struct {
	deques  []paddedDequeCounters
	workers []paddedWorkerMetrics

	// wakes counts every successful wakeup.
	wakes atomic.Uint64
}

func newMetricsState(n int) *metricsState {
	return &metricsState{
		deques:  make([]paddedDequeCounters, n),
		workers: make([]paddedWorkerMetrics, n),
	}
}

// WithMetrics enables the scheduler counters. The cost when enabled is one
// uncontended atomic add per counted event on a worker-private cache line;
// the counters never allocate after construction. Read them with
// MetricsSnapshot.
func WithMetrics() Option {
	return func(e *Executor) { e.metricsOn = true }
}

// MetricsEnabled reports whether the executor was built with WithMetrics.
func (e *Executor) MetricsEnabled() bool { return e.metrics != nil }

// WorkerStats is one worker's counters at a snapshot instant.
type WorkerStats struct {
	// Deque-side accounting (from the worker's own Chase-Lev deque).
	Pushes        uint64 // tasks pushed to this worker's deque
	Pops          uint64 // tasks the owner popped back out
	StolenFrom    uint64 // tasks thieves stole out of this deque
	QueueGrows    uint64 // ring reallocations
	MaxQueueDepth uint64 // push-time high watermark of resident tasks
	QueueDepth    int    // resident tasks at the snapshot instant (gauge)

	// Worker-side accounting. Steal and injection-drain traffic is counted
	// twice over: operations (sweeps that found work — the first task of
	// each runs directly on this worker) and tasks (total items moved,
	// including batch extras re-pushed onto this worker's own deque).
	StealAttempts         uint64 // steal sweeps (Algorithm 1 line 3)
	Steals                uint64 // successful steal operations by this worker
	StolenTasks           uint64 // tasks moved out of other deques (incl. batch extras)
	StealBatches          uint64 // steal operations that moved more than one task
	InjectionDrains       uint64 // successful injection-queue drain operations
	InjectionDrainedTasks uint64 // tasks taken from the injection queue (incl. batch extras)
	FlowDrains            uint64 // successful multi-tenant flow-queue drain operations
	FlowDrainedTasks      uint64 // tasks taken from flow queues (incl. batch extras)
	// CacheHits counts tasks run as continuations (Context.Continue),
	// Algorithm 1's task cache. A worker recording events (WithTracing
	// during a capture, WithFlightRecorder) books its continuations in a
	// word of its own and adds them here every 64 of them, at the first one
	// a millisecond after it last did, and when it settles (Context.Settle):
	// a live reading may lag by that much, one at quiescence — and one
	// taken after a Run returns — is exact.
	CacheHits          uint64
	Prewaits           uint64 // entries into the eventcount wait protocol
	WaitCancels        uint64 // prewaits retracted because the re-check found work
	Parks              uint64 // committed waits on the eventcount
	ProbabilisticWakes uint64 // always 0: the probabilistic wakeup is not run (Snapshot)
	// Executed counts the tasks this worker ran. It is not counted but
	// derived: every task a worker runs was got from exactly one place, so
	// Executed is Pops + Steals + InjectionDrains + FlowDrains + CacheHits,
	// and lags with CacheHits.
	Executed uint64
}

// QueueStats is one Queue's counters at a snapshot instant (Queue.Stats).
type QueueStats struct {
	Pushes       uint64 // tasks producers pushed onto the queue
	Drains       uint64 // drain operations that found work here
	DrainedTasks uint64 // tasks taken from the queue (incl. batch extras)
	Depth        int    // resident tasks at the snapshot instant (gauge)
}

// Snapshot is a point-in-time reading of every scheduler counter. Taking a
// snapshot while the executor runs is safe; the values are per-counter
// atomic reads (one locked read of the injection queue), so cross-counter
// invariants (Reconcile) are only exact at quiescence.
type Snapshot struct {
	Workers []WorkerStats

	// Injection is the external-submission traffic of the injection queue;
	// it balances the per-worker injection counters at quiescence
	// (Reconcile).
	Injection QueueStats

	// PreciseWakes counts wakeups issued because new work arrived
	// (Algorithm 1's targeted notify), the pool's one wake rule.
	// ProbabilisticWakes is always 0: the 1/16 load-balancing wakeup of
	// lines 26-28 is not run. It stays, beside WorkerStats' field of the
	// same name, for readers written against both rules.
	PreciseWakes       uint64
	ProbabilisticWakes uint64

	// Flows carries per-flow multi-tenancy counters (flow.go), in flow
	// registration order; empty when no flow was registered. The flow
	// counters are always on (they double as admission-control state), so
	// this section is populated even though the snapshot itself requires
	// WithMetrics.
	Flows []FlowStats
}

// Total aggregates the per-worker counters.
func (s *Snapshot) Total() WorkerStats {
	var t WorkerStats
	for i := range s.Workers {
		w := &s.Workers[i]
		t.Pushes += w.Pushes
		t.Pops += w.Pops
		t.StolenFrom += w.StolenFrom
		t.QueueGrows += w.QueueGrows
		if w.MaxQueueDepth > t.MaxQueueDepth {
			t.MaxQueueDepth = w.MaxQueueDepth
		}
		t.QueueDepth += w.QueueDepth
		t.StealAttempts += w.StealAttempts
		t.Steals += w.Steals
		t.StolenTasks += w.StolenTasks
		t.StealBatches += w.StealBatches
		t.InjectionDrains += w.InjectionDrains
		t.InjectionDrainedTasks += w.InjectionDrainedTasks
		t.FlowDrains += w.FlowDrains
		t.FlowDrainedTasks += w.FlowDrainedTasks
		t.CacheHits += w.CacheHits
		t.Prewaits += w.Prewaits
		t.WaitCancels += w.WaitCancels
		t.Parks += w.Parks
		t.Executed += w.Executed
	}
	return t
}

// Reconcile checks the conservation laws the counters promise at
// quiescence (no task in any queue, no worker inside the scheduler):
//
//	deque pushes            == deque pops + deque steals
//	stolen tasks (thieves)  == deque steals (victims)
//	executed                == pops + steal ops + injection drain ops + flow drain ops + cache hits
//	parks + wait cancels    ≤ prewaits ≤ parks + wait cancels + workers
//
// and, per queue — the injection queue and every multi-tenant flow alike
// (CheckQueueLaws):
//
//	pushes                  == drained tasks, backlog 0
//	Σ queue drain ops       == Σ worker drain ops of that kind
//	Σ queue drained tasks   == Σ worker drained tasks of that kind
//
// and per flow (CheckFlowLaws):
//
//	admitted tasks          == released tasks      (no leaked reservation)
//	in-flight gauge         == 0
//	peak in-flight          ≤ MaxInFlight when a quota is set
//
// The executed law holds by construction, for Executed is derived from the
// other five (WorkerStats.Executed); what witnesses it is a count of the
// bodies that actually ran, which the property tests of internal/core
// compare Executed with. It counts operations, not tasks: each successful steal or
// drain operation hands exactly one task straight to the thief for
// execution; the batch extras it also moved re-enter the thief's own deque
// as pushes and are later popped or re-stolen, so they surface through the
// first law instead. Batch shape is additionally sanity-checked:
// stolenTasks ≥ steal ops, stealBatches ≤ steal ops, drained tasks ≥ drain
// ops.
//
// The eventcount law is a band rather than an equality because quiescence
// includes workers parked (or about to park) on the notifier: each live
// worker may hold one prewait that has not yet resolved into a committed
// park or a cancelled wait, so up to len(Workers) prewaits may be
// outstanding. Every resolved prewait resolved exactly once.
//
// It returns nil when every law holds, or an error naming the first
// imbalance. Calling it while tasks are in flight reports spurious
// imbalances.
func (s *Snapshot) Reconcile() error {
	t := s.Total()
	if t.Pushes != t.Pops+t.StolenFrom {
		return fmt.Errorf("executor metrics: deque pushes %d != pops %d + steals %d",
			t.Pushes, t.Pops, t.StolenFrom)
	}
	if t.StolenTasks != t.StolenFrom {
		return fmt.Errorf("executor metrics: thief-side stolen tasks %d != victim-side steals %d",
			t.StolenTasks, t.StolenFrom)
	}
	if t.StolenTasks < t.Steals {
		return fmt.Errorf("executor metrics: stolen tasks %d < steal operations %d",
			t.StolenTasks, t.Steals)
	}
	if t.StealBatches > t.Steals {
		return fmt.Errorf("executor metrics: steal batches %d > steal operations %d",
			t.StealBatches, t.Steals)
	}
	if t.InjectionDrainedTasks < t.InjectionDrains {
		return fmt.Errorf("executor metrics: injection drained tasks %d < drain operations %d",
			t.InjectionDrainedTasks, t.InjectionDrains)
	}
	if t.Executed != t.Pops+t.Steals+t.InjectionDrains+t.FlowDrains+t.CacheHits {
		return fmt.Errorf("executor metrics: executed %d != pops %d + steal ops %d + injection drain ops %d + flow drain ops %d + cache hits %d",
			t.Executed, t.Pops, t.Steals, t.InjectionDrains, t.FlowDrains, t.CacheHits)
	}
	if t.FlowDrainedTasks < t.FlowDrains {
		return fmt.Errorf("executor metrics: flow drained tasks %d < flow drain operations %d",
			t.FlowDrainedTasks, t.FlowDrains)
	}
	resolved := t.Parks + t.WaitCancels
	if t.Prewaits < resolved || t.Prewaits > resolved+uint64(len(s.Workers)) {
		return fmt.Errorf("executor metrics: prewaits %d outside [parks %d + cancels %d, +%d workers]",
			t.Prewaits, t.Parks, t.WaitCancels, len(s.Workers))
	}
	if err := CheckQueueLaws("injection", []QueueStats{s.Injection}, t.InjectionDrains, t.InjectionDrainedTasks); err != nil {
		return fmt.Errorf("executor metrics: %w", err)
	}
	if err := CheckFlowLaws(s.Flows, t.FlowDrains, t.FlowDrainedTasks); err != nil {
		return fmt.Errorf("executor metrics: %w", err)
	}
	return nil
}

// MetricsSnapshot reads every counter plus the sampled queue-depth gauges.
// It returns ok=false when the executor was built without WithMetrics.
// Safe to call at any time from any goroutine; see Snapshot for the
// consistency contract.
func (e *Executor) MetricsSnapshot() (Snapshot, bool) {
	m := e.metrics
	if m == nil {
		return Snapshot{}, false
	}
	s := Snapshot{Workers: make([]WorkerStats, len(e.workers))}
	for i, w := range e.workers {
		d := &m.deques[i].Counters
		wm := &m.workers[i].workerMetrics
		ws := &s.Workers[i]
		ws.Pushes = d.Pushes.Load()
		ws.Pops = d.Pops.Load()
		ws.StolenFrom = d.Steals.Load()
		ws.QueueGrows = d.Grows.Load()
		ws.MaxQueueDepth = d.MaxDepth.Load()
		ws.QueueDepth = w.queue.Len()
		ws.StealAttempts = wm.stealAttempts.Load()
		ws.Steals = wm.steals.Load()
		ws.StolenTasks = wm.stolenTasks.Load()
		ws.StealBatches = wm.stealBatches.Load()
		ws.InjectionDrains = wm.injectionDrains.Load()
		ws.InjectionDrainedTasks = wm.injectionDrainedTasks.Load()
		ws.FlowDrains = wm.flowDrains.Load()
		ws.FlowDrainedTasks = wm.flowDrainedTasks.Load()
		ws.CacheHits = wm.cacheHits.Load()
		// Load the wait-resolution counters before prewaits: a worker
		// cycling the park protocol between the loads then inflates
		// Prewaits (inside Reconcile's band) instead of deflating it
		// (outside).
		ws.WaitCancels = wm.waitCancels.Load()
		ws.Parks = wm.parks.Load()
		ws.Prewaits = wm.prewaits.Load()
		ws.Executed = ws.Pops + ws.Steals + ws.InjectionDrains + ws.FlowDrains + ws.CacheHits
	}
	s.Injection = e.inj.Stats()
	s.Flows = e.FlowStats()
	s.PreciseWakes = m.wakes.Load()
	return s, true
}
