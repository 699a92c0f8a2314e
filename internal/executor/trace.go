package executor

// The event spine: the one record path behind capture sessions, the
// flight recorder, and every timestamp a running task's consumers share.
// Where metrics.go answers "how many", this file answers "when, where and
// why": every task span and scheduler lifecycle event — steal,
// park/unpark, wakes, injection traffic, retry arm/fire, cancellation
// skips, subflow spawn/join, dependency release — is timestamped into a
// per-worker wrapping ring, and internal/tracing renders the merged
// stream as a Chrome trace-event JSON timeline (Perfetto).
//
// One clock. Nanos is the only clock recording reads, and a worker reads
// it once per task boundary, lazily: at body start (StartStamp) and body
// end (EndStamp). The task's start/end events, every event its owner
// traces, internal/core's histogram record, RunStats busy time and the
// successors' ready stamps share those two readings to the nanosecond —
// and a task handed over as a continuation starts at its releaser's end
// stamp (worker.finish), so a chain reads the clock once per task.
//
// One ring, two readers. Each worker owns one ring (one more, mutex-
// guarded, takes events from outside the pool — cold by construction). A
// capture session is a [start, stop) window of record numbers on it, the
// flight recorder (flight.go) its trailing window; a record is written
// once however many readers are armed. A record is one event, or the
// hand-off record of a continuation (evHandOff): the end of one task and
// the start of the next at one stamp, with the release between them
// folded in, which the readers expand into those two or three events.
//
// No per-event lock, one publication per task. The owner fills slots with
// plain stores and publishes them with one atomic store of head, so a
// reader that loads head sees whole slots. What a worker has written stays
// private until somebody else could need it: head moves at a task's start
// event (the task a worker is inside, or stuck inside, is always visible),
// at scheduler lifecycle events, at Settle and on entering a segment; a
// task's release and end events ride with the next of those, and a
// continuation's hand-off record, which starts a task, is published as it
// is written. Slots are
// reused a segment (ringSegLen) at a time:
// the owner closes the segment (pins 0 -> -1), advances its base event
// number and reopens it; a reader pins the one segment it copies, checks
// that base still names the generation it wants, copies and unpins. The
// owner thus waits only while its own oldest segment is being copied. A
// seqlock over the slots would be shorter, but its reader loads string
// headers that may be torn — unsafe, and the race detector rejects it.
//
// Disabled, an instrumentation point costs one nil check on the worker's
// spine pointer (plus one atomic load when only WithTracing is built in).

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind enumerates the traced scheduler and task lifecycle events.
type EventKind uint8

const (
	// EvTaskStart/EvTaskEnd bracket one task-body execution on a worker;
	// the exporter pairs them into named "X" spans.
	EvTaskStart EventKind = iota
	EvTaskEnd
	// EvSteal records a successful steal by this worker (Arg = victim id).
	EvSteal
	// EvInjectDrain records a drain from the injection queue or a flow's
	// queue (Arg packs the queue's trace id and task count; see injectArg).
	EvInjectDrain
	// EvInjectPush records an external submission (Arg packs the queue's
	// trace id and batch size; see injectArg).
	EvInjectPush
	// EvPark/EvUnpark bracket a worker blocking on the eventcount notifier
	// (Arg = the worker's park-cycle epoch, so a timeline shows which park
	// a wake resolved).
	EvPark
	EvUnpark
	// EvWakePrecise records wakeups issued because new work arrived
	// (Arg = workers woken).
	EvWakePrecise
	// EvQueueGrow records a deque ring reallocation (Arg = new capacity).
	EvQueueGrow
	// EvDepRelease records the dependency edge that made a task ready:
	// Meta identifies the finishing (releasing) task, Arg is the released
	// task's unique ID. The exporter draws these as flow arrows.
	EvDepRelease
	// EvRetryArm records a failed execution scheduling a backoff retry
	// (Arg = attempt number); EvRetryFire records the timer resubmitting it.
	EvRetryArm
	EvRetryFire
	// EvSkip records a task body skipped by cooperative cancellation while
	// the dependency structure drained.
	EvSkip
	// EvCancel records the cancellation of a topology (fail-fast, Cancel,
	// or deadline).
	EvCancel
	// EvSubflowSpawn records a dynamic task spawning a child graph
	// (Arg = number of spawned tasks); EvSubflowJoin records a joined
	// subflow draining back into its parent.
	EvSubflowSpawn
	EvSubflowJoin
	// EvStealBatch records a batch steal moving more than one task in a
	// single sweep (Arg = number of tasks moved, ≥ 2): the first ran on the
	// thief, the rest landed on its deque. It follows the EvSteal event that
	// names the victim.
	EvStealBatch

	numEventKinds
)

// evHandOff is the ring record of a continuation (worker.handOff), never
// returned to readers: spine.read expands it into the EvTaskEnd of the
// span before it and the EvTaskStart of the task it names (Meta), preceded
// by that span's EvDepRelease of the task when Arg is 1 (the release was
// folded into the record), all at the record's Ts.
const evHandOff = numEventKinds

var eventKindNames = [numEventKinds]string{
	EvTaskStart:    "task_start",
	EvTaskEnd:      "task_end",
	EvSteal:        "steal",
	EvInjectDrain:  "inject_drain",
	EvInjectPush:   "inject_push",
	EvPark:         "park",
	EvUnpark:       "unpark",
	EvWakePrecise:  "wake_precise",
	EvQueueGrow:    "queue_grow",
	EvDepRelease:   "dep_release",
	EvRetryArm:     "retry_arm",
	EvRetryFire:    "retry_fire",
	EvSkip:         "skip",
	EvCancel:       "cancel",
	EvSubflowSpawn: "subflow_spawn",
	EvSubflowJoin:  "subflow_join",
	EvStealBatch:   "steal_batch",
}

// String returns the stable lowercase name of the kind, used verbatim in
// the exported Chrome trace.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// injectArgQueueShift packs a queue's trace id (Queue.TraceID) into the top
// 24 bits of an EvInjectPush/EvInjectDrain arg; the low 40 bits carry the
// task count.
const injectArgQueueShift = 40

// injectArg packs a queue's trace id and a task count into one trace event
// arg (id on top, count below). The exporters decode it with
// InjectArgQueue/InjectArgCount so Perfetto shows which queue a push landed
// on and which queue a drain emptied.
func injectArg(id int, count uint64) uint64 {
	return uint64(id)<<injectArgQueueShift | count&(uint64(1)<<injectArgQueueShift-1)
}

// InjectArgQueue extracts the queue's trace id from a packed injection arg:
// 0 for the injection queue, 0x80 and up for flows.
func InjectArgQueue(arg uint64) int { return int(arg >> injectArgQueueShift) }

// InjectArgCount extracts the task count from a packed injection arg.
func InjectArgCount(arg uint64) uint64 { return arg & (uint64(1)<<injectArgQueueShift - 1) }

// TaskMeta identifies a task in trace events. Producing a TaskMeta copies
// two string headers and three integers — no allocation — so carrying
// identity through the hot path is free of garbage.
type TaskMeta struct {
	// Flow is the owning taskflow/topology display name ("" if unnamed).
	Flow string
	// Name is the task display name ("" if unnamed; renderers fall back
	// to a positional name derived from Idx, matching the DOT dump).
	Name string
	// ID is a unique task identity (stable across runs), used to match
	// dependency-release events to the spans they released.
	ID uint64
	// Idx is the task's emplacement index within its graph — the basis of
	// the positional fallback name.
	Idx int32
	// Gen is the run generation of a reusable topology (0 for one-shot
	// dispatches), distinguishing spans of successive Run calls.
	Gen uint64
}

// TraceEvent is one recorded event. Worker is the recording worker's index,
// or ExternalWorker for events from outside the pool (external submissions,
// retry timers, cancellation).
type TraceEvent struct {
	// Ts is the offset from Trace.Epoch (inside a ring: the raw Nanos
	// reading, rebased when a reader copies the event out).
	Ts     time.Duration
	Worker int32
	Kind   EventKind
	Arg    uint64
	Meta   TaskMeta
}

// ExternalWorker is the Worker value of events recorded outside the pool.
const ExternalWorker int32 = -1

// Trace is what a reader of the rings returns — a stopped capture or a
// flight snapshot: the merged, time-ordered event stream of its window on
// every ring.
type Trace struct {
	// Epoch is the wall-clock instant of StartTrace (of New, for a flight
	// snapshot); event timestamps are offsets from it.
	Epoch time.Time
	// Events is the merged stream, sorted by Ts.
	Events []TraceEvent
	// Dropped counts the window's events that Events lacks: the oldest
	// ones, overwritten by wrap-around, and the end and release a
	// continuation implied of a span that started before the window.
	Dropped uint64
	// Workers is the executor's worker count at capture time.
	Workers int
}

// clockEpoch anchors Nanos; set back one tick so a reading is never 0,
// which the workers use for "no stamp taken".
var clockEpoch = time.Now().Add(-time.Nanosecond)

// Nanos reads the monotonic clock: nanoseconds since a process-local
// epoch, always positive. It is the one clock behind every recorded
// timestamp; code running on a worker shares the worker's readings
// (Context.StartStamp / EndStamp) instead of calling it per consumer.
func Nanos() int64 { return int64(time.Since(clockEpoch)) }

// ringSegLen is the slot count of one ring segment: the unit of slot
// reuse, and the most a writer ever waits for a reader to copy.
const ringSegLen = 64

// ringSeg is the reuse gate of one segment. pins counts readers copying
// it, or is -1 while the writer moves it to its next generation; base is
// the sequence number of the record in its first slot, and extra the
// ring's extra events (eventRing.extra) before that record.
type ringSeg struct {
	pins  atomic.Int32
	base  atomic.Int64
	extra atomic.Int64
}

// eventRing is one wrapping record buffer with a single writer at a time:
// its owning worker, or for the external ring the holder of spine.extMu.
// Record number i lives in slot i mod len(buf). A record is one event,
// or a hand-off record (evHandOff) that stands for two or three. Readers
// see the records below head; the writer's own count runs ahead of it by
// the records it has not published yet, fewer than ringSegLen. See the
// file comment for the publication and segment-pin protocol.
type eventRing struct {
	buf   []TraceEvent
	segs  []ringSeg
	head  atomic.Int64
	n     int64 // writer-private: records written
	pos   int   // writer-private: the slot of record number n
	extra int64 // writer-private: events written beyond one per record

	_ [metricsPad - 80]byte // rings sit side by side: keep each writer's head on its own lines
}

// newEventRing sizes a ring so that the newest capacity published events
// are always held: two segments beyond capacity, because entering a segment
// gives up all of its old events at once and up to a segment's worth of the
// newest are not published yet.
func newEventRing(capacity int) eventRing {
	n := (capacity+ringSegLen-1)/ringSegLen + 2
	return eventRing{buf: make([]TraceEvent, n*ringSegLen), segs: make([]ringSeg, n)}
}

// write records one event — kind at ts about meta's task (nil: none) —
// filling its slot in place, having first moved the segment that slot
// opens (if any) to its new generation. The event is the writer's own
// until the next publish; entering a segment publishes what came before,
// which bounds both the unpublished tail and what a burst of releases can
// push out of a reader's window unseen.
func (r *eventRing) write(worker int32, kind EventKind, ts int64, meta *TaskMeta, arg uint64) {
	if r.pos&(ringSegLen-1) == 0 {
		seg := &r.segs[r.pos/ringSegLen]
		for !seg.pins.CompareAndSwap(0, -1) {
			runtime.Gosched() // a reader is copying this segment's last generation
		}
		seg.base.Store(r.n)
		seg.extra.Store(r.extra)
		seg.pins.Store(0)
		r.head.Store(r.n)
	}
	ev := &r.buf[r.pos]
	ev.Ts, ev.Worker, ev.Kind, ev.Arg = time.Duration(ts), worker, kind, arg
	if meta != nil {
		ev.Meta = *meta
	} else {
		ev.Meta = TaskMeta{}
	}
	if r.pos++; r.pos == len(r.buf) {
		r.pos = 0
	}
	r.n++
}

// writeHandOff records the continuation of the open span into the task
// meta names, at ts: one record for two events, three when the span's
// release of that task was folded into it (folded 1; see evHandOff).
func (r *eventRing) writeHandOff(worker int32, ts int64, meta *TaskMeta, folded uint64) {
	r.write(worker, evHandOff, ts, meta, folded)
	r.extra += 1 + int64(folded)
}

// publish makes every event written so far visible to readers.
func (r *eventRing) publish() {
	if r.head.Load() != r.n {
		r.head.Store(r.n)
	}
}

// window appends to dst, oldest first, the events of the records numbered
// [lo, hi) that the ring still holds, with base subtracted from their
// timestamps and each hand-off record expanded (evHandOff). hi must not
// exceed a value loaded from head. A hand-off record whose previous span
// did not start in the window — before lo, or in a segment the writer has
// since reused — expands to its start alone. It also returns the ring's
// extra count at hi (eventRing.extra once record hi-1 was written), ok
// false when the ring no longer holds record hi-1; the caller counts what
// the window left out as dropped.
func (r *eventRing) window(dst []TraceEvent, lo, hi, base int64) (_ []TraceEvent, extra int64, ok bool) {
	prev := -1 // dst index of the window's last span start
	for lo < hi {
		first := lo - lo%ringSegLen
		end := min(first+ringSegLen, hi)
		s := int(first / ringSegLen % int64(len(r.segs)))
		seg := &r.segs[s]
		for {
			p := seg.pins.Load()
			if p >= 0 && seg.pins.CompareAndSwap(p, p+1) {
				break
			}
			runtime.Gosched() // the writer is between generations: a few instructions
		}
		if ok = seg.base.Load() == first; ok {
			extra = seg.extra.Load()
			for i, ev := range r.buf[s*ringSegLen : s*ringSegLen+int(end-first)] {
				if ev.Kind == evHandOff {
					extra += 1 + int64(ev.Arg)
				}
				if first+int64(i) < lo {
					continue
				}
				ev.Ts = max(ev.Ts-time.Duration(base), 0)
				switch ev.Kind {
				case evHandOff:
					dst, prev = expandHandOff(dst, prev, ev)
				case EvTaskStart:
					prev = len(dst)
					fallthrough
				default:
					dst = append(dst, ev)
				}
			}
		} else {
			prev = -1
		}
		seg.pins.Add(-1)
		lo = end
	}
	return dst, extra, ok
}

// expandHandOff appends the events of hand-off record h to dst: when the
// span before it started at dst[prev] (prev >= 0), that span's release of
// h's task if folded and its end, then h's start, whose index it returns.
func expandHandOff(dst []TraceEvent, prev int, h TraceEvent) ([]TraceEvent, int) {
	if prev >= 0 {
		ev := TraceEvent{Ts: h.Ts, Worker: h.Worker, Meta: dst[prev].Meta}
		if h.Arg == 1 {
			ev.Kind, ev.Arg = EvDepRelease, h.Meta.ID
			dst = append(dst, ev)
		}
		ev.Kind, ev.Arg = EvTaskEnd, 0
		dst = append(dst, ev)
	}
	h.Kind, h.Arg = EvTaskStart, 0
	return append(dst, h), len(dst)
}

// spine is the executor's event-recording state; it exists iff the
// executor was built WithTracing or WithFlightRecorder.
type spine struct {
	// rings[i] belongs to worker i; the last ring takes events from
	// outside the pool, its writers serialized by extMu.
	rings []eventRing
	extMu sync.Mutex

	// traceCap and flightCap are the two readers' window lengths in events
	// per ring (0: that reader is not built in).
	traceCap, flightCap int64

	// capture is the active capture session, nil between sessions; born
	// is the session flight snapshots read: everything since New.
	capture atomic.Pointer[captureSession]
	born    captureSession
}

// captureSession is the start of a reader's window: the instant (wall
// clock and Nanos) timestamps are rebased to, and where each ring's head
// and extra count stood then (nil: at zero).
type captureSession struct {
	epoch         time.Time
	base          int64
	marks, extras []int64
}

func newSpine(workers int, traceCap, flightCap int) *spine {
	sp := &spine{
		rings:     make([]eventRing, workers+1),
		traceCap:  int64(traceCap),
		flightCap: int64(flightCap),
		born:      captureSession{epoch: time.Now(), base: Nanos()},
	}
	for i := range sp.rings {
		sp.rings[i] = newEventRing(max(traceCap, flightCap))
	}
	return sp
}

// recording reports whether any reader wants events: the flight recorder
// always does, a capture while it is active.
func (sp *spine) recording() bool {
	return sp.flightCap > 0 || sp.capture.Load() != nil
}

// read merges the newest limit records each ring wrote since c, expanded
// into their events, into a time-sorted Trace. Dropped is what the window
// stands for less what it returned: the records the ring no longer held,
// each with every event it stood for, and the end and release a hand-off
// record implied of a span that started before the window.
func (sp *spine) read(c *captureSession, limit int64) Trace {
	tr := Trace{Epoch: c.epoch, Workers: len(sp.rings) - 1}
	for i := range sp.rings {
		r := &sp.rings[i]
		var lo, xlo int64
		if c.marks != nil {
			lo, xlo = c.marks[i], c.extras[i]
		}
		hi := r.head.Load()
		before := len(tr.Events)
		var xhi int64
		var ok bool
		tr.Events, xhi, ok = r.window(tr.Events, max(lo, hi-limit), hi, c.base)
		if !ok {
			// The writer lapped the ring while this reader copied it: what
			// the lost records stood for is gone with them, so each counts
			// once.
			xhi = xlo
		}
		if d := hi - lo + xhi - xlo - int64(len(tr.Events)-before); d > 0 {
			tr.Dropped += uint64(d)
		}
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		return tr.Events[i].Ts < tr.Events[j].Ts
	})
	return tr
}

// defaultTraceCapacity is the per-ring capture window when WithTracing is
// given a non-positive capacity: 16K records ≈ 1.3 MiB per worker.
const defaultTraceCapacity = 1 << 14

// WithTracing enables capture sessions over the event rings, each keeping
// up to capacity ring records per worker (<= 0 selects the default): a
// record is one event, or a continuation's hand-off record, which stands
// for up to three (see WithFlightRecorder). Tracing is
// armed but idle until StartTrace; the idle cost per instrumentation point
// is one atomic pointer load, and executors built without this option pay
// only a nil check.
func WithTracing(capacity int) Option {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return func(e *Executor) { e.traceCap = capacity }
}

// TracingEnabled reports whether the executor was built WithTracing.
func (e *Executor) TracingEnabled() bool { return e.traceCap > 0 }

// TraceActive reports whether a capture is currently recording.
func (e *Executor) TraceActive() bool {
	return e.traceCap > 0 && e.spine.capture.Load() != nil
}

// StartTrace begins a capture: the window opens at each ring's current
// head, epoch now. It returns false when the executor was built without
// WithTracing or a capture is already active. Safe to call while workers
// run.
func (e *Executor) StartTrace() bool {
	if e.traceCap <= 0 {
		return false
	}
	sp := e.spine
	n := len(sp.rings)
	c := &captureSession{epoch: time.Now(), base: Nanos(), marks: make([]int64, n), extras: make([]int64, n)}
	for i := range sp.rings {
		r := &sp.rings[i]
		c.marks[i] = r.head.Load()
		if m := c.marks[i]; m > 0 { // the ring's extra count at the mark
			_, c.extras[i], _ = r.window(nil, m-1, m, 0)
		}
	}
	return sp.capture.CompareAndSwap(nil, c)
}

// StopTrace ends the capture and returns the merged, time-ordered events
// recorded since StartTrace. A capture is a window on wrapping rings: when
// a worker wrote more than the WithTracing capacity of records the newest
// are kept and the older ones' events counted in Dropped. ok is false when
// tracing was not built in or no capture is active. The window is made of
// what the workers have published: everything a worker recorded before it
// let a waiter go (Context.Settle) — so a capture around a finished Run
// holds all of the run's events — and each task's start event from the
// moment it started (a continuation's hand-off record expands to its start
// alone when the span it ends began before StartTrace; the end and release
// it implied are counted in Dropped). Of a task running across StartTrace
// or StopTrace, at most that one task's trailing events (its releases and
// its end) per worker may fall on the wrong side of the window; events
// already published are never torn.
func (e *Executor) StopTrace() (Trace, bool) {
	if e.traceCap <= 0 {
		return Trace{}, false
	}
	sp := e.spine
	c := sp.capture.Swap(nil)
	if c == nil {
		return Trace{}, false
	}
	return sp.read(c, sp.traceCap), true
}

// TraceExternal records an event from outside the worker pool (retry
// timers, cancellation, submission goroutines).
func (e *Executor) TraceExternal(kind EventKind, meta TaskMeta, arg uint64) {
	sp := e.spine
	if sp == nil || !sp.recording() {
		return
	}
	ext := &sp.rings[len(sp.rings)-1]
	sp.extMu.Lock()
	ext.write(ExternalWorker, kind, Nanos(), &meta, arg)
	ext.publish()
	sp.extMu.Unlock()
}

// tracing reports whether this worker's events are wanted right now.
func (w *worker) tracing() bool {
	sp := w.spine
	return sp != nil && sp.recording()
}

// StartStamp implements Context: the clock reading at which the worker
// began the current task — taken on first use, or inherited from the task
// that handed this one over (Continue).
func (w *worker) StartStamp() int64 {
	if !w.stamping {
		return Nanos()
	}
	if w.start == 0 {
		w.start = Nanos()
	}
	return w.start
}

// EndStamp implements Context: the clock reading at the end of the current
// task's body, taken on first use and shared by every later consumer.
func (w *worker) EndStamp() int64 {
	if !w.stamping {
		return Nanos()
	}
	if w.end == 0 {
		w.end = Nanos()
	}
	return w.end
}

// Trace implements Context: record an event about task at the current
// task's end stamp. The running task's identity was resolved when it
// started (begin); any other task is asked for its own. The event is
// published with the worker's next publication (see Settle). The running
// task's release of a successor is held back instead (held): the next
// record writes it out first, unless it is the hand-off record of that
// successor, which folds it in (handOff).
func (w *worker) Trace(kind EventKind, task *Runnable, arg uint64) {
	if !w.tracing() {
		return
	}
	ts := w.EndStamp()
	w.writeHeld()
	meta := &w.meta
	if task != w.cur {
		var m TaskMeta
		if task != nil {
			m = (*task).Describe()
		}
		meta = &m
	} else if kind == EvDepRelease && w.spanOpen {
		w.held, w.heldArg = true, arg
		return
	}
	w.ring.write(int32(w.id), kind, ts, meta, arg)
}

// writeHeld writes out the release Trace held back, if there is one.
func (w *worker) writeHeld() {
	if w.held {
		w.held = false
		w.ring.write(int32(w.id), EvDepRelease, w.end, &w.meta, w.heldArg)
	}
}

// A recording worker adds its continuations to the cacheHits counter in
// batches (handOff): after hitBatch of them, or at the first one hitLag
// after its last batch.
const (
	hitBatch = 64
	hitLag   = int64(time.Millisecond)
)

// handOff books Continue's boundary while the running task's span is open
// and events are wanted: one clock reading, the task's end stamp, is both
// the end of its span and the start of r's, which opens at once — one
// hand-off record (evHandOff), published, with the task's release of r
// folded in when that is what Trace holds. r counts as a cache hit in the
// worker's own word (hits), which goes out to the counter every hitBatch
// hand-offs, hitLag after the last time it did, and at Settle.
func (w *worker) handOff(r *Runnable) {
	end := w.EndStamp()
	meta := (*r).Describe()
	var folded uint64
	if w.held && w.heldArg == meta.ID {
		w.held, folded = false, 1
	}
	w.writeHeld()
	w.cur, w.meta = r, meta
	w.ring.writeHandOff(int32(w.id), end, &w.meta, folded)
	w.ring.publish()
	w.start, w.end = end, 0
	if w.metrics != nil {
		if w.hits++; w.hits == hitBatch || end-w.hitsAt >= hitLag {
			w.flushHits()
			w.hitsAt = end
		}
	}
}

// traceEvent records a scheduler lifecycle event, which has no task
// identity and is no task boundary: it reads the clock itself, and is
// published at once — what follows may be a park.
func (w *worker) traceEvent(kind EventKind, arg uint64) {
	if w.tracing() {
		w.writeHeld()
		w.ring.write(int32(w.id), kind, Nanos(), nil, arg)
		w.ring.publish()
	}
}

// endSpan writes the running task's end event, once: from Settle when the
// task's owner settles, from invoke otherwise.
func (w *worker) endSpan() {
	if w.spanOpen {
		w.writeHeld()
		w.spanOpen = false
		w.ring.write(int32(w.id), EvTaskEnd, w.EndStamp(), &w.meta, 0)
	}
}

// flushHits adds the continuations handOff counted to the cacheHits
// counter.
func (w *worker) flushHits() {
	if w.hits != 0 {
		w.metrics.cacheHits.Add(w.hits)
		w.hits = 0
	}
}

// Settle implements Context: everything this worker has recorded becomes
// readable — the running task's span is closed at its end stamp, the ring
// published, the pending cache hits and histogram records added to their
// counter and shard.
func (w *worker) Settle() {
	if r := w.ring; r != nil {
		w.endSpan()
		r.publish()
		w.flushHits()
	}
	if s := w.dirty; s != nil {
		w.dirty = nil
		s.settle()
	}
}
