package executor

// Multi-tenant flows: the arbitration layer between taskflows sharing one
// executor. The paper's executor is shareable (Section III-E) but blind to
// who submitted what — a 20k-task traversal and a 10-task request ride the
// same deques. A Flow is a named submission handle carrying a priority
// class, a weighted share within its class, an in-flight task quota
// enforced at admission, and a backlog watermark past which new admissions
// are shed.
//
// Scheduling policy (see worker.steal in executor.go):
//
//   - Strict class priority on the drain path: Interactive flow backlog is
//     drained before deque stealing and the plain injection shards, which
//     in turn are drained before Batch flows, then Background flows. Small
//     high-priority flows never wait behind bulk work.
//
//   - Weighted round-robin within a class: each class keeps a
//     weight-expanded wheel of its flows and a shared cursor that advances
//     by one per drain, so while a flow has backlog it is serviced at
//     least once per full wheel rotation — a hard bound on the service gap
//     of sum-of-weights drains — and over time flows receive shares
//     proportional to their weights.
//
// Admission protocol (used by internal/core): a dispatcher calls
// Admit(n) with the topology's task count before submitting anything, and
// Release(n) exactly once when the topology finishes. The quota is a
// ceiling on reserved in-flight task units, exact by construction: each
// graph node has at most one outstanding scheduled execution (the join-
// counter protocol), so a graph of n tasks can never have more than n
// executions in flight. Subflow expansions, condition-loop iterations and
// retries ride on their topology's reservation. Submit/SubmitBatch then
// enqueue pre-admitted work and fail only at shutdown — internal
// resubmissions (semaphore hand-offs, retries) are never shed, because a
// shed mid-graph submission would strand the topology.
//
// Everything here stays off the per-task hot path: a pool with no flows
// registered pays one nil pointer load per steal sweep, and a flow-bound
// topology pays atomics only (no allocation) per run and per task.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gotaskflow/internal/wsq"
)

// ErrAdmission is returned by Flow.Admit when accepting n more in-flight
// task units would exceed the flow's MaxInFlight quota. The caller owns
// the retry policy (bounded queueing): nothing was charged.
var ErrAdmission = errors.New("executor: flow in-flight quota exceeded")

// ErrOverloaded is returned by Flow.Admit when the flow's queued backlog
// sits at or above its MaxBacklog watermark — load shedding. Nothing was
// charged; the producer should back off.
var ErrOverloaded = errors.New("executor: flow backlog over watermark (load shed)")

// PriorityClass ranks flows for the drain path. Lower value = higher
// priority.
type PriorityClass uint8

const (
	// Interactive flows are drained before everything else, including
	// deque stealing: request-shaped work that wants latency.
	Interactive PriorityClass = iota
	// Batch flows are drained after deques and the plain injection
	// shards: throughput work that tolerates waiting behind active graphs.
	Batch
	// Background flows are drained last: work that should only soak idle
	// capacity.
	Background

	// NumPriorityClasses is the number of priority classes.
	NumPriorityClasses = 3
)

// String returns the lowercase class name.
func (c PriorityClass) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Background:
		return "background"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// maxFlowWeight caps a flow's weighted share so one flow cannot bloat the
// class wheel (and the service-gap bound) without limit.
const maxFlowWeight = 64

// FlowConfig configures a flow at creation.
type FlowConfig struct {
	// Class is the flow's priority class (default Interactive — zero
	// value; out-of-range values clamp to Background).
	Class PriorityClass
	// Weight is the flow's share within its class wheel, clamped to
	// [1, 64]. A weight-3 flow is serviced three times per wheel rotation
	// where a weight-1 flow is serviced once.
	Weight int
	// MaxInFlight caps reserved in-flight task units (Admit/Release);
	// 0 means unlimited.
	MaxInFlight int
	// MaxBacklog is the queued-task watermark at or above which Admit
	// sheds new work with ErrOverloaded; 0 means never shed.
	MaxBacklog int
}

// FlowStats is one flow's counters at a snapshot instant. The counters
// are always on (they are the admission-control state), so Stats works
// without WithMetrics; Snapshot.Reconcile checks their conservation laws
// at quiescence.
type FlowStats struct {
	Name   string
	Class  PriorityClass
	Weight int

	// Queue traffic: tasks pushed into the flow's ring, drain operations
	// that found work, and tasks removed (incl. batch extras). At
	// quiescence Pushes == DrainedTasks.
	Pushes       uint64
	DrainOps     uint64
	DrainedTasks uint64

	// Executed counts task executions attributed to the flow (every
	// execution of its topologies, wherever the task was queued).
	Executed uint64

	// Admission accounting, in task units. At quiescence (no admitted
	// topology open) AdmittedTasks == ReleasedTasks and InFlight == 0.
	// AdmissionRejects counts units refused by the quota,
	// OverloadSheds units refused by the backlog watermark.
	AdmittedTasks    uint64
	ReleasedTasks    uint64
	AdmissionRejects uint64
	OverloadSheds    uint64

	// InFlight and Backlog are gauges at the snapshot instant;
	// PeakInFlight is the high watermark of InFlight. PeakInFlight never
	// exceeds MaxInFlight when a quota is set.
	InFlight     int64
	PeakInFlight int64
	Backlog      int

	// Config echoes, so exported snapshots are self-describing.
	MaxInFlight int
	MaxBacklog  int

	// Latency is the flow's merged latency histogram triple, non-nil only
	// when the executor was built WithLatencyHistograms (histogram.go).
	Latency *FlowLatencyStats
}

// Flow is a multi-tenant submission handle. Implemented by the real
// executor (NewFlow) and by internal/sim's SimExecutor, so flow-bound
// taskflows run identically under deterministic simulation.
//
// The admission pair is Admit/Release; the submission pair is
// Submit/SubmitBatch (pre-admitted work only). NoteExecuted attributes
// executions. All methods are safe for concurrent use on the real
// executor.
type Flow interface {
	// Name returns the flow's display name.
	Name() string
	// Class returns the flow's priority class.
	Class() PriorityClass
	// Admit reserves n in-flight task units, or rejects the whole request
	// with ErrAdmission (quota), ErrOverloaded (backlog watermark), or
	// ErrShutdown — charging nothing on any error.
	Admit(n int) error
	// Release returns n units reserved by a successful Admit. Call
	// exactly once per admission.
	Release(n int)
	// Submit enqueues one pre-admitted task on the flow's priority queue.
	// It fails only with ErrShutdown.
	Submit(r *Runnable) error
	// SubmitBatch enqueues pre-admitted tasks as one FIFO batch, accepted
	// whole or rejected whole with ErrShutdown.
	SubmitBatch(rs []*Runnable) error
	// NoteExecuted attributes n task executions to the flow.
	NoteExecuted(n int)
	// Stats snapshots the flow's counters.
	Stats() FlowStats
}

// classState is the per-priority-class scheduling state: an atomic
// backlog gauge (published like the injection shards' len, after the ring
// unlock and before the wake, so parking workers see flow work without a
// lock), the weight-expanded wheel, and the shared round-robin cursor.
type classState struct {
	backlog atomic.Int64
	cursor  atomic.Uint64
	// wheel holds each flow of the class Weight times; rebuilt (copy on
	// write) under mtState.mu when a flow registers.
	wheel atomic.Pointer[[]*execFlow]
	_     [metricsPad - 24%metricsPad]byte // pad: three words of state above
}

// mtState is the executor's multi-tenancy state, allocated on first
// NewFlow so flow-free pools pay only a nil check.
type mtState struct {
	classes [NumPriorityClasses]classState

	mu         sync.Mutex
	all        []*execFlow                     // registration order, for FlowStats
	classFlows [NumPriorityClasses][]*execFlow // registration order per class
}

// execFlow is the real executor's Flow: a lock-guarded task ring (the
// same shrink-on-drain ring as the injection shards) plus always-on
// atomic accounting.
type execFlow struct {
	e    *Executor
	cs   *classState
	name string
	cfg  FlowConfig
	idx  int // registration index, used as the trace shard id

	mu   sync.Mutex
	ring taskRing
	qlen atomic.Int64

	inflight atomic.Int64
	peak     atomic.Int64
	admitted atomic.Uint64
	released atomic.Uint64
	rejected atomic.Uint64
	shed     atomic.Uint64

	pushes       atomic.Uint64
	drains       atomic.Uint64
	drainedTasks atomic.Uint64
	executed     atomic.Uint64

	// lat is the flow's latency histogram set, non-nil only when the
	// executor was built WithLatencyHistograms (histogram.go).
	lat *flowLatency
}

var _ Flow = (*execFlow)(nil)

// flowTraceShardBase offsets flow indices into the shard byte of
// EvInjectPush/EvInjectDrain trace args (see InjectArg), so flow queue
// traffic shares the injection event kinds while staying distinguishable
// from the plain shards (which are < flowTraceShardBase).
const flowTraceShardBase = 0x80

func (f *execFlow) traceShard() int {
	return flowTraceShardBase | (f.idx & 0x7f)
}

// NormalizeFlowConfig clamps a FlowConfig to its documented ranges:
// out-of-range classes become Background, Weight lands in [1, 64], and
// negative limits mean unlimited. Exported so internal/sim applies the
// identical normalization to its modeled flows.
func NormalizeFlowConfig(cfg FlowConfig) FlowConfig {
	if cfg.Class >= NumPriorityClasses {
		cfg.Class = Background
	}
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	if cfg.Weight > maxFlowWeight {
		cfg.Weight = maxFlowWeight
	}
	if cfg.MaxInFlight < 0 {
		cfg.MaxInFlight = 0
	}
	if cfg.MaxBacklog < 0 {
		cfg.MaxBacklog = 0
	}
	return cfg
}

// NewFlow registers a named multi-tenant flow on the executor. Flows are
// never unregistered; create them once at setup, not per request. The
// first registration allocates the multi-tenancy state — a pool that
// never calls NewFlow pays one nil check per steal sweep.
func (e *Executor) NewFlow(name string, cfg FlowConfig) Flow {
	cfg = NormalizeFlowConfig(cfg)
	mt := e.mt.Load()
	if mt == nil {
		mt = &mtState{}
		if !e.mt.CompareAndSwap(nil, mt) {
			mt = e.mt.Load()
		}
	}
	f := &execFlow{e: e, name: name, cfg: cfg}
	f.ring.init(injInitialCap)
	if e.lat != nil {
		f.lat = newFlowLatency(len(e.workers), e.workers)
	}
	mt.mu.Lock()
	f.idx = len(mt.all)
	mt.all = append(mt.all, f)
	cs := &mt.classes[cfg.Class]
	f.cs = cs
	mt.classFlows[cfg.Class] = append(mt.classFlows[cfg.Class], f)
	// Rebuild the class wheel copy-on-write: each flow appears Weight
	// times, block-repeated in registration order. Readers (drain sweeps)
	// load the pointer once and never see a partial wheel.
	var wheel []*execFlow
	for _, g := range mt.classFlows[cfg.Class] {
		for i := 0; i < g.cfg.Weight; i++ {
			wheel = append(wheel, g)
		}
	}
	cs.wheel.Store(&wheel)
	mt.mu.Unlock()
	return f
}

// FlowStats snapshots every registered flow's counters, in registration
// order. Works without WithMetrics (the counters are the admission state);
// nil when no flow was ever registered.
func (e *Executor) FlowStats() []FlowStats {
	mt := e.mt.Load()
	if mt == nil {
		return nil
	}
	mt.mu.Lock()
	all := append([]*execFlow(nil), mt.all...)
	mt.mu.Unlock()
	out := make([]FlowStats, len(all))
	for i, f := range all {
		out[i] = f.Stats()
	}
	return out
}

func (f *execFlow) Name() string         { return f.name }
func (f *execFlow) Class() PriorityClass { return f.cfg.Class }

// Admit implements Flow: an all-or-nothing reservation of n in-flight
// task units. The watermark check comes first (nothing to undo), then the
// quota CAS loop, so a rejected request leaves every counter untouched.
func (f *execFlow) Admit(n int) error {
	if n <= 0 {
		return nil
	}
	if f.e.stop.Load() {
		return ErrShutdown
	}
	if wm := int64(f.cfg.MaxBacklog); wm > 0 && f.qlen.Load() >= wm {
		f.shed.Add(uint64(n))
		return ErrOverloaded
	}
	if max := int64(f.cfg.MaxInFlight); max > 0 {
		for {
			cur := f.inflight.Load()
			next := cur + int64(n)
			if next > max {
				f.rejected.Add(uint64(n))
				return ErrAdmission
			}
			if f.inflight.CompareAndSwap(cur, next) {
				break
			}
		}
	} else {
		f.inflight.Add(int64(n))
	}
	f.admitted.Add(uint64(n))
	for {
		cur := f.inflight.Load()
		p := f.peak.Load()
		if cur <= p || f.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	return nil
}

// Release implements Flow: return n units reserved by Admit.
func (f *execFlow) Release(n int) {
	if n <= 0 {
		return
	}
	f.inflight.Add(-int64(n))
	f.released.Add(uint64(n))
}

// NoteExecuted implements Flow.
func (f *execFlow) NoteExecuted(n int) {
	f.executed.Add(uint64(n))
}

// Submit implements Flow: enqueue one pre-admitted task. The backlog
// gauges are published after the ring unlock and before the wake, the
// same lost-wakeup-free protocol as the injection shards: a parking
// worker that misses the notify re-checks anyWork and sees the count.
func (f *execFlow) Submit(r *Runnable) error {
	e := f.e
	if e.stop.Load() {
		return ErrShutdown
	}
	f.mu.Lock()
	f.ring.push(r)
	f.mu.Unlock()
	f.qlen.Add(1)
	f.cs.backlog.Add(1)
	f.pushes.Add(1)
	e.TraceExternal(EvInjectPush, TaskMeta{Flow: f.name}, InjectArg(f.traceShard(), 1))
	if e.wakeOne() {
		e.TraceExternal(EvWakePrecise, TaskMeta{}, 1)
	}
	return nil
}

// SubmitBatch implements Flow: one lock, one publication, one computed
// wake count for the whole batch.
func (f *execFlow) SubmitBatch(rs []*Runnable) error {
	if len(rs) == 0 {
		return nil
	}
	e := f.e
	if e.stop.Load() {
		return ErrShutdown
	}
	f.mu.Lock()
	f.ring.pushBatch(rs)
	f.mu.Unlock()
	f.qlen.Add(int64(len(rs)))
	f.cs.backlog.Add(int64(len(rs)))
	f.pushes.Add(uint64(len(rs)))
	e.TraceExternal(EvInjectPush, TaskMeta{Flow: f.name}, InjectArg(f.traceShard(), uint64(len(rs))))
	if woke := e.wakeUpTo(len(rs)); woke > 0 {
		e.TraceExternal(EvWakePrecise, TaskMeta{}, uint64(woke))
	}
	return nil
}

// Stats implements Flow.
func (f *execFlow) Stats() FlowStats {
	backlog := f.qlen.Load()
	if backlog < 0 {
		backlog = 0
	}
	var lat *FlowLatencyStats
	if f.lat != nil {
		lat = f.lat.stats()
	}
	return FlowStats{
		Name:             f.name,
		Class:            f.cfg.Class,
		Weight:           f.cfg.Weight,
		Pushes:           f.pushes.Load(),
		DrainOps:         f.drains.Load(),
		DrainedTasks:     f.drainedTasks.Load(),
		Executed:         f.executed.Load(),
		AdmittedTasks:    f.admitted.Load(),
		ReleasedTasks:    f.released.Load(),
		AdmissionRejects: f.rejected.Load(),
		OverloadSheds:    f.shed.Load(),
		InFlight:         f.inflight.Load(),
		PeakInFlight:     f.peak.Load(),
		Backlog:          int(backlog),
		MaxInFlight:      f.cfg.MaxInFlight,
		MaxBacklog:       f.cfg.MaxBacklog,
		Latency:          lat,
	}
}

// drainFlows sweeps one priority class's flows in weighted-round-robin
// order and drains up to half the first non-empty flow's backlog (capped
// at wsq.MaxStealBatch): the first task is returned for execution, the
// extras land on this worker's own deque. The shared cursor advances by
// one per drain, so while a flow keeps backlog it is serviced at least
// once per wheel rotation — the service-gap bound the fairness property
// tests assert. Returns (nil, false) when the class has no visible work.
func (w *worker) drainFlows(cs *classState) (*Runnable, bool) {
	if cs.backlog.Load() <= 0 {
		// Transient negatives are possible (gauge published after the
		// ring unlock); treat <= 0 as empty like the shard drains do.
		return nil, false
	}
	wp := cs.wheel.Load()
	if wp == nil {
		return nil, false
	}
	wheel := *wp
	n := len(wheel)
	if n == 0 {
		return nil, false
	}
	var scratch [wsq.MaxStealBatch]*Runnable
	start := int(cs.cursor.Add(1) - 1)
	for i := 0; i < n; i++ {
		f := wheel[(start+i)%n]
		ln := f.qlen.Load()
		if ln <= 0 {
			continue
		}
		grab := (ln + 1) / 2
		if grab > int64(len(scratch)) {
			grab = int64(len(scratch))
		}
		f.mu.Lock()
		k := f.ring.popN(scratch[:grab])
		f.mu.Unlock()
		if k == 0 {
			continue
		}
		f.qlen.Add(-int64(k))
		cs.backlog.Add(-int64(k))
		f.drains.Add(1)
		f.drainedTasks.Add(uint64(k))
		if k > 1 {
			w.queue.PushBatch(scratch[1:k])
		}
		if m := w.metrics; m != nil {
			m.flowDrains.Add(1)
			m.flowDrainedTasks.Add(uint64(k))
		}
		w.traceEvent(EvInjectDrain, InjectArg(f.traceShard(), uint64(k)))
		return scratch[0], true
	}
	return nil, false
}

// flowBacklog reports the total queued flow backlog across classes
// (gauge, for tests and debug surfaces).
func (e *Executor) flowBacklog() int {
	mt := e.mt.Load()
	if mt == nil {
		return 0
	}
	var total int64
	for c := range mt.classes {
		total += mt.classes[c].backlog.Load()
	}
	if total < 0 {
		total = 0
	}
	return int(total)
}
