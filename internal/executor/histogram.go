package executor

// Per-flow latency histograms: the "how long" leg of the observability
// stack. metrics.go counts events, trace.go timestamps them; this file
// aggregates per-task latency distributions continuously, so a serving
// tier can ask "what is interactive p99 queue-wait right now?" without
// arming a capture — the TFProf idea (continuous profiling, not capture
// sessions) applied to latency.
//
// Three timings are recorded per task execution, all in nanoseconds:
//
//	queue-wait  ready (submitted) → body start
//	execution   body start → body end
//	end-to-end  ready → body end (the sum, recorded as its own series)
//
// internal/core captures the timestamps on the node lifecycle and feeds
// them through the LatencySink seam below; the executor aggregates them
// per Flow (plus one default sink for topologies bound to no flow) and,
// at read time, per PriorityClass.
//
// Design rules, mirroring metrics.go and trace.go:
//
//   - Provably zero cost when disabled. The histogram state exists only
//     when the executor was built WithLatencyHistograms; internal/core
//     fetches its sink once per topology (a cold type assertion) and the
//     per-task guard is one nil-interface check.
//
//   - Lock-free and allocation-free on the record path. Each sink keeps
//     one padded shard per worker, written only by that worker, and a
//     record stays in owner-private words of the shard until somebody else
//     could need it: per series a run of records that fell into one
//     bucket (a plain increment while the bucket repeats, one atomic add of
//     the finished run when it changes), the two component sums plain.
//     settle moves them into the counters readers see with at most five
//     atomic adds — when the worker settles (Context.Settle), after
//     latSettleRecords records, or once the records waiting add up to
//     latSettleNs — so a record never costs more than the five adds it
//     used to. A series' count (the total of its buckets) and the
//     end-to-end sum (of the other two) are derived when the shards are
//     merged at read time.
//
//   - Fixed memory. Buckets are log-linear (below): 64 buckets cover
//     [0, ~550s] with ≤ 50% relative width, so a histogram is a flat
//     64-counter array per shard regardless of run length.
//
// Bucket scheme (log-linear, base-2 octaves with 2 linear sub-buckets):
// bucket 0 is [0, 256ns); for v >= 256ns the octave is floor(log2 v)-8
// and the second-highest bit of v selects the sub-bucket, so bucket
// boundaries run 256, 384, 512, 768, 1024, ... — each octave split in
// two. The last bucket (63) is the +Inf overflow. Quantiles interpolate
// linearly inside a bucket, which bounds their relative error by the
// sub-bucket width (50%), in practice ~25%.

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// numLatencyBuckets is the fixed bucket count of every latency histogram.
const numLatencyBuckets = 64

// latencyBucketOf maps a non-negative nanosecond value to its bucket.
func latencyBucketOf(v int64) int {
	if v < 256 {
		return 0
	}
	exp := bits.Len64(uint64(v)) - 1 // >= 8
	idx := 1 + (exp-8)*2 + int((uint64(v)>>(exp-1))&1)
	if idx >= numLatencyBuckets {
		idx = numLatencyBuckets - 1
	}
	return idx
}

// latencyBounds[i] is the exclusive upper bound (ns) of bucket i for
// i < numLatencyBuckets-1; the last bucket is unbounded. Bounds double
// every two buckets: 256, 384, 512, 768, 1024, ...
var latencyBounds = func() [numLatencyBuckets - 1]int64 {
	var b [numLatencyBuckets - 1]int64
	b[0] = 256
	for i := 1; i < len(b); i++ {
		o := (i - 1) / 2
		if (i-1)%2 == 0 {
			b[i] = 384 << o
		} else {
			b[i] = 512 << o
		}
	}
	return b
}()

// LatencyBucketBounds returns the finite bucket upper bounds in order;
// the last histogram bucket (index NumLatencyBuckets-1) is the +Inf
// overflow and has no entry here. Exporters use it to label histogram
// series.
func LatencyBucketBounds() []time.Duration {
	out := make([]time.Duration, len(latencyBounds))
	for i, b := range latencyBounds {
		out[i] = time.Duration(b)
	}
	return out
}

// latSeries indexes the three recorded series of a sink.
const (
	latQueueWait = iota
	latExec
	latEndToEnd
	numLatSeries
)

// A shard is settled by its owner no later than latSettleRecords records or
// latSettleNs of recorded time after it took a record, whichever comes
// first: what a live reader of a busy worker may lag by. The time bound
// keeps a chain of slow tasks from hiding behind the record bound.
const (
	latSettleRecords = 64
	latSettleNs      = 100_000
)

// latShard is one worker's storage of a sink. Readers see the bucket counts
// of the three series and the sums of the two component series; the rest is
// the owner's alone: per series the bucket its latest records fell into and
// how many did, the sums and the number of the records not yet settled.
type latShard struct {
	counts [numLatSeries][numLatencyBuckets]atomic.Uint64
	sums   [latEndToEnd]atomic.Uint64 // total nanoseconds: queue-wait, exec

	runBucket [numLatSeries]int32
	runLen    [numLatSeries]uint32
	pendSums  [latEndToEnd]uint64
	pending   uint32
}

// add counts one record of series k in bucket b: it extends the current
// run, or settles the run and starts the next.
func (s *latShard) add(k, b int) {
	if int(s.runBucket[k]) != b {
		if n := s.runLen[k]; n > 0 {
			s.counts[k][s.runBucket[k]].Add(uint64(n))
		}
		s.runBucket[k], s.runLen[k] = int32(b), 0
	}
	s.runLen[k]++
}

// settle moves the owner's pending records into the counters readers see.
// Owner only.
func (s *latShard) settle() {
	for k := range s.runLen {
		if n := s.runLen[k]; n > 0 {
			s.counts[k][s.runBucket[k]].Add(uint64(n))
			s.runLen[k] = 0
		}
	}
	for k := range s.pendSums {
		if v := s.pendSums[k]; v > 0 {
			s.sums[k].Add(v)
			s.pendSums[k] = 0
		}
	}
	s.pending = 0
}

// paddedLatShard aligns shards to metricsPad so two workers never share a
// cache line (same idiom as the metrics counter blocks).
type paddedLatShard struct {
	latShard
	_ [metricsPad - unsafe.Sizeof(latShard{})%metricsPad]byte
}

// LatencySnapshot is one merged histogram at a snapshot instant.
type LatencySnapshot struct {
	// Counts[i] is the number of observations in bucket i (see
	// LatencyBucketBounds; the last bucket is the +Inf overflow).
	Counts [numLatencyBuckets]uint64
	// Sum is the total of all observations in nanoseconds.
	Sum uint64
	// Count is the number of observations.
	Count uint64
}

// Merge adds o's observations into s.
func (s *LatencySnapshot) Merge(o *LatencySnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *LatencySnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns the q-quantile (q in [0, 1]) with linear interpolation
// inside the landing bucket. The overflow bucket extrapolates one octave
// past the last finite bound. Returns 0 when the histogram is empty.
func (s *LatencySnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			var lo, hi int64
			if i > 0 {
				lo = latencyBounds[i-1]
			}
			if i < len(latencyBounds) {
				hi = latencyBounds[i]
			} else {
				hi = 2 * latencyBounds[len(latencyBounds)-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	return time.Duration(latencyBounds[len(latencyBounds)-1])
}

// LatencySink records the latency triple of one finished task execution.
// Implemented by the executor's per-flow histogram sets; internal/core
// fetches one per topology through LatencyProvider and calls it from the
// worker executing the task. worker must be the executing worker's index
// (Context.WorkerID) — call on that worker, only: the record goes into
// words that worker owns and writes without synchronization, and readers
// see it once that worker settles (Context.Settle). Negative timings are
// clamped to zero. End-to-end is derived as queueWaitNs+execNs, so one
// call feeds all three series.
type LatencySink interface {
	RecordLatency(worker int, queueWaitNs, execNs int64)
}

// LatencyProvider is implemented by schedulers that aggregate per-task
// latency histograms. LatencySink returns the sink for topologies bound
// to f (nil selects the shared default sink for unbound topologies); it
// returns a nil interface when histogram collection is disabled or f is
// foreign, and callers must treat nil as "do not record".
type LatencyProvider interface {
	LatencySink(f Flow) LatencySink
}

// flowLatency is one sink: the three series of one flow (or of the
// default, unbound set), sharded per worker and merged at read time.
// owners are the executor's workers, which settle the shards they dirty;
// a sink no executor owns (nil) is settled by whoever records into it.
type flowLatency struct {
	shards []paddedLatShard
	owners []*worker
}

func newFlowLatency(workers int, owners []*worker) *flowLatency {
	return &flowLatency{shards: make([]paddedLatShard, workers), owners: owners}
}

// RecordLatency implements LatencySink: plain stores into the worker's own
// shard while the buckets repeat, no allocation, no CAS; see latShard.
func (fl *flowLatency) RecordLatency(worker int, queueWaitNs, execNs int64) {
	if worker < 0 || worker >= len(fl.shards) {
		worker = 0
	}
	queueWaitNs, execNs = max(queueWaitNs, 0), max(execNs, 0)
	s := &fl.shards[worker].latShard
	s.add(latQueueWait, latencyBucketOf(queueWaitNs))
	s.add(latExec, latencyBucketOf(execNs))
	s.add(latEndToEnd, latencyBucketOf(queueWaitNs+execNs))
	s.pendSums[latQueueWait] += uint64(queueWaitNs)
	s.pendSums[latExec] += uint64(execNs)
	s.pending++
	if s.pending >= latSettleRecords || s.pendSums[latQueueWait]+s.pendSums[latExec] >= latSettleNs {
		s.settle()
		return
	}
	if fl.owners == nil {
		return
	}
	// One dirty shard per worker: a record for another sink settles the
	// last one's first.
	if w := fl.owners[worker]; w.dirty != s {
		if w.dirty != nil {
			w.dirty.settle()
		}
		w.dirty = s
	}
}

// stats merges the shards' settled counters. They are monotone, so a
// concurrent record skews the result by at most the records still with
// their workers — never tears it — and each series' Count always equals
// the total of its own buckets.
func (fl *flowLatency) stats() *FlowLatencyStats {
	var out FlowLatencyStats
	series := [numLatSeries]*LatencySnapshot{&out.QueueWait, &out.Exec, &out.EndToEnd}
	for i := range fl.shards {
		s := &fl.shards[i].latShard
		for k, snap := range series {
			for b := range s.counts[k] {
				c := s.counts[k][b].Load()
				snap.Counts[b] += c
				snap.Count += c
			}
		}
		out.QueueWait.Sum += s.sums[latQueueWait].Load()
		out.Exec.Sum += s.sums[latExec].Load()
	}
	out.EndToEnd.Sum = out.QueueWait.Sum + out.Exec.Sum
	return &out
}

// FlowLatencyStats is the merged latency triple of one flow (or class, or
// the unbound default) at a snapshot instant.
type FlowLatencyStats struct {
	QueueWait LatencySnapshot
	Exec      LatencySnapshot
	EndToEnd  LatencySnapshot
}

// Merge adds o into s (used for per-class aggregation).
func (s *FlowLatencyStats) Merge(o *FlowLatencyStats) {
	s.QueueWait.Merge(&o.QueueWait)
	s.Exec.Merge(&o.Exec)
	s.EndToEnd.Merge(&o.EndToEnd)
}

// FlowLatencySummary is one row of Executor.LatencyStats: the latency
// triple of one flow, or of the unbound default sink.
type FlowLatencySummary struct {
	// Flow is the flow's name; "" for the unbound default sink.
	Flow string
	// Class is the flow's priority class (meaningless when Unbound).
	Class PriorityClass
	// Unbound marks the default sink shared by topologies bound to no
	// flow.
	Unbound bool

	FlowLatencyStats
}

// WithLatencyHistograms enables continuous per-flow latency histograms:
// every flow registered with NewFlow gets its own queue-wait / execution /
// end-to-end histogram set, plus one shared set for topologies bound to
// no flow. A record costs plain stores into the recording worker's own
// shard, on top of the clock readings the worker shares, and becomes
// readable when that worker settles — after at most 64 records or 100 µs
// of recorded time on a busy worker, and always before a waiter on the
// work it belongs to is released (Context.Settle); executors built without
// this option pay one nil check per topology and one per task.
func WithLatencyHistograms() Option {
	return func(e *Executor) { e.latencyOn = true }
}

// LatencyEnabled reports whether the executor was built
// WithLatencyHistograms.
func (e *Executor) LatencyEnabled() bool { return e.lat != nil }

// LatencySink implements LatencyProvider: the recording sink for
// topologies bound to f (nil f selects the unbound default sink). Returns
// nil when histograms are disabled.
func (e *Executor) LatencySink(f Flow) LatencySink {
	if e.lat == nil {
		return nil
	}
	if f == nil {
		return e.lat
	}
	if ef, ok := f.(*FlowQueue); ok && ef.lat != nil {
		return ef.lat
	}
	return nil
}

// LatencyStats snapshots every latency histogram: the unbound default
// sink first (Flow "", Unbound true), then each registered flow in
// registration order. ok is false when the executor was built without
// WithLatencyHistograms.
func (e *Executor) LatencyStats() ([]FlowLatencySummary, bool) {
	if e.lat == nil {
		return nil, false
	}
	out := []FlowLatencySummary{{Unbound: true, FlowLatencyStats: *e.lat.stats()}}
	if mt := e.mt.Load(); mt != nil {
		for _, f := range mt.Flows() {
			if f.lat == nil {
				continue
			}
			out = append(out, FlowLatencySummary{
				Flow:             f.name,
				Class:            f.cfg.Class,
				FlowLatencyStats: *f.lat.stats(),
			})
		}
	}
	return out, true
}

// ClassLatency merges the latency histograms of every flow in class c.
// ok is false when histograms are disabled; a class with no flows merges
// to an empty (zero-count) result.
func (e *Executor) ClassLatency(c PriorityClass) (FlowLatencyStats, bool) {
	if e.lat == nil {
		return FlowLatencyStats{}, false
	}
	var agg FlowLatencyStats
	mt := e.mt.Load()
	if mt == nil {
		return agg, true
	}
	for _, f := range mt.Flows() {
		if f.lat != nil && f.cfg.Class == c {
			agg.Merge(f.lat.stats())
		}
	}
	return agg, true
}
