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
//     drained before deque stealing and the plain injection queue, which
//     in turn are drained before Batch flows, then Background flows
//     (DequeRank). Small high-priority flows never wait behind bulk work.
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
//
// The policy lives in FlowTable and FlowQueue and exists once: the worker
// pool and internal/sim's single-threaded simulator register and drain the
// same objects (atomics are correct on one goroutine). A FlowQueue is a Queue
// (inject.go) with admission state on top, so a flow's ring, gauges, counters
// and QueueHost seam are the injection queue's own.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// queue: throughput work that tolerates waiting behind active graphs.
	Batch
	// Background flows are drained last: work that should only soak idle
	// capacity.
	Background

	// NumPriorityClasses is the number of priority classes.
	NumPriorityClasses = 3
)

// DequeRank is where the worker deques and the plain injection queue sit in
// the class order of one steal sweep: flow classes below it are drained
// before them, DequeRank and the classes above it after them, in class
// order. Both drivers of the policy (worker.steal, sim's steal) walk it.
const DequeRank = Batch

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
// without WithMetrics; CheckFlowLaws checks their conservation laws at
// quiescence.
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
}

// Flow is a multi-tenant submission handle: a *FlowQueue, which the real
// executor and internal/sim hand out alike, so flow-bound taskflows run
// under deterministic simulation through the same admission and queue
// code. The admission pair is Admit/Release; the submission pair is the
// Queue's Submit/SubmitBatch (pre-admitted work only). NoteExecuted
// attributes executions. All methods are safe for concurrent use.
type Flow = *FlowQueue

// classState is the per-priority-class scheduling state: an atomic
// backlog gauge (published like the injection queue's len, after the ring
// unlock and before the wake, so parking workers see flow work without a
// lock), the weight-expanded wheel, and the shared round-robin cursor.
type classState struct {
	backlog atomic.Int64
	cursor  atomic.Uint64
	// wheel holds each flow of the class Weight times; rebuilt (copy on
	// write) under FlowTable.mu when a flow registers.
	wheel atomic.Pointer[[]*FlowQueue]
	_     [metricsPad - 24%metricsPad]byte // pad: three words of state above
}

// FlowTable is a scheduler's multi-tenancy state: the registered flows and
// the per-class wheels a drain walks. The executor allocates it on the first
// NewFlow, so flow-free pools pay only a nil check.
type FlowTable struct {
	host    QueueHost
	classes [NumPriorityClasses]classState

	mu  sync.Mutex
	all []*FlowQueue // registration order
}

// NewFlowTable returns an empty table whose flows report to host.
func NewFlowTable(host QueueHost) *FlowTable { return &FlowTable{host: host} }

// FlowQueue is a flow: a Queue whose pushes and drains also move its
// class's backlog gauge, plus always-on atomic admission accounting.
type FlowQueue struct {
	Queue
	cfg FlowConfig
	idx int // registration index

	inflight atomic.Int64
	peak     atomic.Int64
	admitted atomic.Uint64
	released atomic.Uint64
	rejected atomic.Uint64
	shed     atomic.Uint64
	executed atomic.Uint64

	// lat is the flow's latency histogram set, non-nil only when the
	// executor was built WithLatencyHistograms (histogram.go).
	lat *LatencySink
}

// normalizeFlowConfig clamps a FlowConfig to its documented ranges:
// out-of-range classes become Background, Weight lands in [1, 64], and
// negative limits mean unlimited.
func normalizeFlowConfig(cfg FlowConfig) FlowConfig {
	if cfg.Class >= NumPriorityClasses {
		cfg.Class = Background
	}
	cfg.Weight = min(max(cfg.Weight, 1), maxFlowWeight)
	cfg.MaxInFlight = max(cfg.MaxInFlight, 0)
	cfg.MaxBacklog = max(cfg.MaxBacklog, 0)
	return cfg
}

// NewFlow registers a named flow on the table. Flows are never unregistered.
func (t *FlowTable) NewFlow(name string, cfg FlowConfig) *FlowQueue {
	return t.register(name, cfg, nil)
}

func (t *FlowTable) register(name string, cfg FlowConfig, lat *LatencySink) *FlowQueue {
	cfg = normalizeFlowConfig(cfg)
	f := &FlowQueue{cfg: cfg, lat: lat}
	cs := &t.classes[cfg.Class]
	t.mu.Lock()
	f.idx = len(t.all)
	f.init(t.host, &cs.backlog, name, flowTraceBase+f.idx)
	t.all = append(t.all, f)
	// Rebuild the class wheel copy-on-write: each flow appears Weight
	// times, block-repeated in registration order. Readers (drain walks)
	// load the pointer once and never see a partial wheel.
	var wheel []*FlowQueue
	for _, g := range t.all {
		for i := 0; g.cfg.Class == cfg.Class && i < g.cfg.Weight; i++ {
			wheel = append(wheel, g)
		}
	}
	cs.wheel.Store(&wheel)
	t.mu.Unlock()
	return f
}

// Flows returns the registered flows in registration order.
func (t *FlowTable) Flows() []*FlowQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*FlowQueue(nil), t.all...)
}

// Stats snapshots every registered flow's counters, in registration order.
func (t *FlowTable) Stats() []FlowStats {
	all := t.Flows()
	out := make([]FlowStats, len(all))
	for i, f := range all {
		out[i] = f.Stats()
	}
	return out
}

// Backlog reports the queued flow tasks across classes. It is what a parking
// worker re-checks: Submit publishes the class gauges before its wake, so a
// worker that missed the notify sees the count here. A gauge can read
// transiently negative (it is published after the ring unlock, and a drain
// can land in between); such a class counts as empty and hides no other.
func (t *FlowTable) Backlog() int {
	var total int64
	for c := range t.classes {
		total += max(t.classes[c].backlog.Load(), 0)
	}
	return int(total)
}

// NewFlow registers a named multi-tenant flow on the executor. Flows are
// never unregistered; create them once at setup, not per request. The
// first registration allocates the multi-tenancy state — a pool that
// never calls NewFlow pays one nil check per steal sweep.
func (e *Executor) NewFlow(name string, cfg FlowConfig) Flow {
	mt := e.mt.Load()
	if mt == nil {
		mt = NewFlowTable((*queueHost)(e))
		if !e.mt.CompareAndSwap(nil, mt) {
			mt = e.mt.Load()
		}
	}
	var lat *LatencySink
	if e.lat != nil {
		lat = newLatencySink(len(e.workers), e.workers)
	}
	return mt.register(name, cfg, lat)
}

// FlowStats snapshots every registered flow's counters, in registration
// order. Works without WithMetrics (the counters are the admission state);
// nil when no flow was ever registered.
func (e *Executor) FlowStats() []FlowStats {
	mt := e.mt.Load()
	if mt == nil {
		return nil
	}
	return mt.Stats()
}

// flowTraceBase offsets flow indices into the queue id of
// EvInjectPush/EvInjectDrain trace args (see injectArg), so flow queue
// traffic shares the injection event kinds while staying distinguishable
// from the injection queue (id 0).
const flowTraceBase = 0x80

// Name returns the flow's display name; Class its priority class.
func (f *FlowQueue) Name() string         { return f.name }
func (f *FlowQueue) Class() PriorityClass { return f.cfg.Class }

// Index returns the flow's registration index on its table.
func (f *FlowQueue) Index() int { return f.idx }

// Admit reserves n in-flight task units, or rejects the whole request
// with ErrAdmission (quota), ErrOverloaded (backlog watermark) or
// ErrShutdown. The watermark check comes first (nothing to undo), then the
// quota CAS loop, so a rejected request leaves every counter untouched.
func (f *FlowQueue) Admit(n int) error {
	if n <= 0 {
		return nil
	}
	if f.host.Stopped() {
		return ErrShutdown
	}
	if wm := int64(f.cfg.MaxBacklog); wm > 0 && f.len.Load() >= wm {
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

// Release returns n units reserved by a successful Admit. Call exactly
// once per admission.
func (f *FlowQueue) Release(n int) {
	if n <= 0 {
		return
	}
	f.inflight.Add(-int64(n))
	f.released.Add(uint64(n))
}

// NoteExecuted attributes n task executions to the flow.
func (f *FlowQueue) NoteExecuted(n int) {
	f.executed.Add(uint64(n))
}

// Stats snapshots the flow's counters.
func (f *FlowQueue) Stats() FlowStats {
	q := f.Queue.Stats()
	return FlowStats{
		Name:             f.name,
		Class:            f.cfg.Class,
		Weight:           f.cfg.Weight,
		Pushes:           q.Pushes,
		DrainOps:         q.Drains,
		DrainedTasks:     q.DrainedTasks,
		Executed:         f.executed.Load(),
		AdmittedTasks:    f.admitted.Load(),
		ReleasedTasks:    f.released.Load(),
		AdmissionRejects: f.rejected.Load(),
		OverloadSheds:    f.shed.Load(),
		InFlight:         f.inflight.Load(),
		PeakInFlight:     f.peak.Load(),
		Backlog:          q.Depth,
		MaxInFlight:      f.cfg.MaxInFlight,
		MaxBacklog:       f.cfg.MaxBacklog,
	}
}

// FlowWalk is one service turn on a class wheel; see FlowTable.Walk.
type FlowWalk struct {
	wheel    []*FlowQueue
	at, left int
}

// Walk starts one service turn of class c: the weighted round-robin
// decision. The class's shared cursor advances by one slot per turn and the
// walk visits the weight-expanded wheel once from there, so while a flow
// keeps backlog it is serviced at least once per wheel rotation — the
// service-gap bound the fairness property tests assert. A class with no
// visible backlog gets an empty walk and keeps its cursor.
func (t *FlowTable) Walk(c PriorityClass) FlowWalk {
	cs := &t.classes[c]
	wp := cs.wheel.Load()
	if cs.backlog.Load() <= 0 || wp == nil {
		return FlowWalk{}
	}
	n := len(*wp)
	return FlowWalk{wheel: *wp, at: int((cs.cursor.Add(1) - 1) % uint64(n)), left: n}
}

// Next returns the next flow on the walk that shows backlog, nil when the
// wheel has been visited once. A caller whose Take from that flow comes back
// empty (another worker drained it first) asks again.
func (w *FlowWalk) Next() *FlowQueue {
	for w.left > 0 {
		f := w.wheel[w.at]
		if w.at++; w.at == len(w.wheel) {
			w.at = 0
		}
		w.left--
		if f.len.Load() > 0 {
			return f
		}
	}
	return nil
}

// drainFlows gives class c one service turn on behalf of this worker: the
// first backlogged flow on the walk that take finds work in. Returns
// (nil, false) when the class has no visible work.
func (w *worker) drainFlows(mt *FlowTable, c PriorityClass) (*Runnable, bool) {
	walk := mt.Walk(c)
	for f := walk.Next(); f != nil; f = walk.Next() {
		if r, k := w.take(&f.Queue); k > 0 {
			if m := w.metrics; m != nil {
				m.flowDrains.Add(1)
				m.flowDrainedTasks.Add(uint64(k))
			}
			return r, true
		}
	}
	return nil, false
}

// CheckFlowLaws checks the per-flow conservation laws at quiescence (no
// admitted topology open, no task queued): every reservation returned, no
// quota ceiling exceeded, and each flow's queue held to CheckQueueLaws. It is
// the one statement of these laws: Snapshot.Reconcile holds the worker pool
// to it and sim's CheckQueues the simulator.
func CheckFlowLaws(flows []FlowStats, drainOps, drainedTasks uint64) error {
	qs := make([]QueueStats, len(flows))
	for i := range flows {
		f := &flows[i]
		qs[i] = QueueStats{Pushes: f.Pushes, Drains: f.DrainOps, DrainedTasks: f.DrainedTasks, Depth: f.Backlog}
		if f.AdmittedTasks != f.ReleasedTasks {
			return fmt.Errorf("flow %q admitted %d != released %d (leaked reservation)",
				f.Name, f.AdmittedTasks, f.ReleasedTasks)
		}
		if f.InFlight != 0 {
			return fmt.Errorf("flow %q in-flight gauge %d != 0 at quiescence",
				f.Name, f.InFlight)
		}
		if f.MaxInFlight > 0 && f.PeakInFlight > int64(f.MaxInFlight) {
			return fmt.Errorf("flow %q peak in-flight %d > quota %d",
				f.Name, f.PeakInFlight, f.MaxInFlight)
		}
	}
	return CheckQueueLaws("flow", qs, drainOps, drainedTasks)
}
