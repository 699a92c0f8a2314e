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
//     one padded shard per worker, written only by that worker: a record
//     is five atomic adds — one bucket per series, the two component sums
//     — with no CAS loop, mutex or allocation. A series' count (the total
//     of its buckets) and the end-to-end sum (of the other two) are
//     derived when the shards are merged at read time.
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

// latShard is one worker's private storage of a sink: the bucket counts
// of the three series and the sums of the two component series.
type latShard struct {
	counts [numLatSeries][numLatencyBuckets]atomic.Uint64
	sums   [latEndToEnd]atomic.Uint64 // total nanoseconds: queue-wait, exec
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
// (Context.WorkerID); negative timings are clamped to zero. End-to-end is
// derived as queueWaitNs+execNs, so one call feeds all three series.
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
type flowLatency struct {
	shards []paddedLatShard
}

func newFlowLatency(workers int) *flowLatency {
	return &flowLatency{shards: make([]paddedLatShard, workers)}
}

// RecordLatency implements LatencySink: five shard-local adds, no
// allocation, no CAS.
func (fl *flowLatency) RecordLatency(worker int, queueWaitNs, execNs int64) {
	if worker < 0 || worker >= len(fl.shards) {
		worker = 0
	}
	queueWaitNs, execNs = max(queueWaitNs, 0), max(execNs, 0)
	s := &fl.shards[worker].latShard
	s.counts[latQueueWait][latencyBucketOf(queueWaitNs)].Add(1)
	s.counts[latExec][latencyBucketOf(execNs)].Add(1)
	s.counts[latEndToEnd][latencyBucketOf(queueWaitNs+execNs)].Add(1)
	s.sums[latQueueWait].Add(uint64(queueWaitNs))
	s.sums[latExec].Add(uint64(execNs))
}

// stats merges the shards. Counters are monotone, so a concurrent record
// skews the result by at most the in-flight observations — never tears
// it — and each series' Count always equals the total of its own buckets.
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

// latencyState exists iff the executor was built WithLatencyHistograms.
type latencyState struct {
	workers int
	// def is the sink of topologies bound to no flow.
	def *flowLatency
}

// WithLatencyHistograms enables continuous per-flow latency histograms:
// every flow registered with NewFlow gets its own queue-wait / execution /
// end-to-end histogram set, plus one shared set for topologies bound to
// no flow. Record cost is five shard-local atomic adds per task on top of
// the worker's two shared clock readings; executors built without this
// option pay one nil check per topology and one per task.
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
	ls := e.lat
	if ls == nil {
		return nil
	}
	if f == nil {
		return ls.def
	}
	if ef, ok := f.(*execFlow); ok && ef.lat != nil {
		return ef.lat
	}
	return nil
}

// LatencyStats snapshots every latency histogram: the unbound default
// sink first (Flow "", Unbound true), then each registered flow in
// registration order. ok is false when the executor was built without
// WithLatencyHistograms.
func (e *Executor) LatencyStats() ([]FlowLatencySummary, bool) {
	ls := e.lat
	if ls == nil {
		return nil, false
	}
	out := []FlowLatencySummary{{Unbound: true, FlowLatencyStats: *ls.def.stats()}}
	if mt := e.mt.Load(); mt != nil {
		mt.mu.Lock()
		all := append([]*execFlow(nil), mt.all...)
		mt.mu.Unlock()
		for _, f := range all {
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
	mt.mu.Lock()
	flows := append([]*execFlow(nil), mt.classFlows[c]...)
	mt.mu.Unlock()
	for _, f := range flows {
		if f.lat == nil {
			continue
		}
		st := f.lat.stats()
		agg.Merge(st)
	}
	return agg, true
}
