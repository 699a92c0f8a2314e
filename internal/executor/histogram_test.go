package executor

import (
	"sync"
	"testing"
	"time"
)

// settled returns the merged stats of a sink no executor owns, having
// settled every shard first: nobody else would.
func settled(fl *LatencySink) *FlowLatencyStats {
	for i := range fl.shards {
		fl.shards[i].settle()
	}
	return fl.stats()
}

// onWorker runs fn as a task of e and waits for it: a worker is the only
// place a sink's RecordLatency(ctx.WorkerID(), …) may be called from.
// Returning from Wait orders everything fn did, and the Settle after it,
// before the caller.
func onWorker(t *testing.T, e *Executor, fn func(ctx Context)) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	err := e.Submit(NewTask(func(ctx Context) {
		fn(ctx)
		ctx.Settle()
		wg.Done()
	}))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestLatencyBucketBoundaries pins the log-linear bucket scheme: octaves
// split in two, boundaries at 256, 384, 512, 768, 1024, ...
func TestLatencyBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {255, 0},
		{256, 1}, {300, 1}, {383, 1},
		{384, 2}, {400, 2}, {511, 2},
		{512, 3}, {767, 3},
		{768, 4}, {1000, 4}, {1023, 4},
		{1024, 5},
		{1 << 62, numLatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := latencyBucketOf(c.v); got != c.want {
			t.Errorf("latencyBucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}

	// The bounds table and the bucket function must agree: each bound is
	// the exclusive upper limit of its bucket.
	for i, b := range latencyBounds {
		if got := latencyBucketOf(b - 1); got != i {
			t.Fatalf("latencyBucketOf(bounds[%d]-1 = %d) = %d, want %d", i, b-1, got, i)
		}
		want := i + 1
		if want > numLatencyBuckets-1 {
			want = numLatencyBuckets - 1
		}
		if got := latencyBucketOf(b); got != want {
			t.Fatalf("latencyBucketOf(bounds[%d] = %d) = %d, want %d", i, b, got, want)
		}
		if i > 0 && b <= latencyBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d <= %d", i, b, latencyBounds[i-1])
		}
	}
	if got := len(LatencyBucketBounds()); got != numLatencyBuckets-1 {
		t.Fatalf("LatencyBucketBounds returned %d bounds, want %d", got, numLatencyBuckets-1)
	}
}

func TestLatencySnapshotMeanAndQuantile(t *testing.T) {
	h := newLatencySink(1, nil)
	for i := 0; i < 1000; i++ {
		h.RecordLatency(0, 0, 1000)
	}
	s := settled(h).Exec
	if s.Count != 1000 || s.Sum != 1_000_000 {
		t.Fatalf("count=%d sum=%d, want 1000/1000000", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 1000*time.Nanosecond {
		t.Fatalf("Mean = %v, want 1µs", got)
	}
	// 1000ns lands in bucket [768, 1024): every quantile must interpolate
	// inside that bucket.
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := s.Quantile(q)
		if got < 768 || got > 1024 {
			t.Fatalf("Quantile(%v) = %v, want within [768ns, 1024ns]", q, got)
		}
	}

	// A spread distribution must yield monotonically non-decreasing
	// quantiles bracketing the data.
	h2 := newLatencySink(1, nil)
	for i := int64(1); i <= 10000; i++ {
		h2.RecordLatency(0, 0, i*100) // 100ns .. 1ms
	}
	s2 := settled(h2).Exec
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		got := s2.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, got, prev)
		}
		prev = got
	}
	if p50 := s2.Quantile(0.5); p50 < 250*time.Microsecond || p50 > 750*time.Microsecond {
		t.Fatalf("p50 of uniform [100ns, 1ms] = %v, want near 500µs", p50)
	}
	if s2.Quantile(0) == 0 && s2.Count > 0 {
		// Quantile(0) may legitimately interpolate to the bucket floor; the
		// empty case is what must return exactly 0.
		t.Log("Quantile(0) interpolated to bucket floor")
	}
	var empty LatencySnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty snapshot must report zero quantiles and mean")
	}
}

func TestLatencySnapshotMerge(t *testing.T) {
	a := newLatencySink(2, nil)
	a.RecordLatency(0, 0, 300)
	a.RecordLatency(1, 0, 300)
	b := newLatencySink(1, nil)
	b.RecordLatency(0, 0, 600)
	sa, sb := settled(a).Exec, settled(b).Exec
	sa.Merge(&sb)
	if sa.Count != 3 || sa.Sum != 1200 {
		t.Fatalf("merged count=%d sum=%d, want 3/1200", sa.Count, sa.Sum)
	}
	if sa.Counts[latencyBucketOf(300)] != 2 || sa.Counts[latencyBucketOf(600)] != 1 {
		t.Fatalf("merged bucket counts wrong: %v", sa.Counts[:8])
	}
}

// TestFlowLatencyRecordClamps pins the sink contract: out-of-range worker
// indices fall back to shard 0, negative timings clamp to zero, and
// end-to-end is derived as the sum.
func TestFlowLatencyRecordClamps(t *testing.T) {
	fl := newLatencySink(2, nil)
	fl.RecordLatency(-1, -10, 50)
	fl.RecordLatency(99, 100, 200)
	st := settled(fl)
	if st.QueueWait.Count != 2 || st.Exec.Count != 2 || st.EndToEnd.Count != 2 {
		t.Fatalf("counts = %d/%d/%d, want 2 each",
			st.QueueWait.Count, st.Exec.Count, st.EndToEnd.Count)
	}
	if st.QueueWait.Sum != 100 { // -10 clamped to 0
		t.Fatalf("queue-wait sum = %d, want 100", st.QueueWait.Sum)
	}
	if st.EndToEnd.Sum != 50+300 {
		t.Fatalf("end-to-end sum = %d, want 350", st.EndToEnd.Sum)
	}
}

func TestExecutorLatencySinks(t *testing.T) {
	e := New(2, WithLatencyHistograms())
	defer e.Shutdown()
	if !e.LatencyEnabled() {
		t.Fatal("LatencyEnabled = false despite WithLatencyHistograms")
	}

	def := e.LatencySink(nil)
	if def == nil {
		t.Fatal("nil default sink")
	}
	onWorker(t, e, func(ctx Context) { def.RecordLatency(ctx.WorkerID(), 100, 200) })

	f := e.NewFlow("tenant", FlowConfig{Class: Interactive, Weight: 2})
	fs := e.LatencySink(f)
	if fs == nil {
		t.Fatal("nil sink for registered flow")
	}
	onWorker(t, e, func(ctx Context) {
		fs.RecordLatency(ctx.WorkerID(), 1000, 2000)
		fs.RecordLatency(ctx.WorkerID(), 1000, 2000)
	})

	if s := e.LatencySink(NewFlowTable(nil).NewFlow("foreign", FlowConfig{})); s != nil {
		t.Fatal("a flow no executor collects for must yield a nil sink")
	}

	flows, ok := e.LatencyStats()
	if !ok {
		t.Fatal("LatencyStats not ok")
	}
	if len(flows) != 2 || !flows[0].Unbound || flows[0].Flow != "" {
		t.Fatalf("want [unbound, tenant], got %+v", flows)
	}
	if flows[0].EndToEnd.Count != 1 || flows[0].EndToEnd.Sum != 300 {
		t.Fatalf("unbound e2e = %d/%d, want 1/300", flows[0].EndToEnd.Count, flows[0].EndToEnd.Sum)
	}
	if flows[1].Flow != "tenant" || flows[1].Class != Interactive {
		t.Fatalf("flow row = %+v", flows[1])
	}
	if flows[1].EndToEnd.Count != 2 || flows[1].EndToEnd.Sum != 6000 {
		t.Fatalf("tenant e2e = %d/%d, want 2/6000", flows[1].EndToEnd.Count, flows[1].EndToEnd.Sum)
	}

	// Class aggregation merges flows of the class; other classes are empty.
	cl, ok := e.ClassLatency(Interactive)
	if !ok || cl.EndToEnd.Count != 2 {
		t.Fatalf("ClassLatency(Interactive) = %d (ok=%v), want 2", cl.EndToEnd.Count, ok)
	}
	if cl, _ := e.ClassLatency(Batch); cl.EndToEnd.Count != 0 {
		t.Fatal("ClassLatency(Batch) must be empty")
	}
}

func TestLatencyDisabledByDefault(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	if e.LatencyEnabled() {
		t.Fatal("LatencyEnabled without the option")
	}
	if s := e.LatencySink(nil); s != nil {
		t.Fatal("sink must be nil when disabled")
	}
	if _, ok := e.LatencyStats(); ok {
		t.Fatal("LatencyStats ok when disabled")
	}
	if _, ok := e.ClassLatency(Interactive); ok {
		t.Fatal("ClassLatency ok when disabled")
	}
}

// TestLatencyRecordZeroAlloc gates the record path — run-length words of
// the worker's own shard, settled every latSettleRecords records — at no
// allocation, recording where the contract says to: on the worker. Runs
// under the CI alloc-gate job alongside the scheduler gates.
func TestLatencyRecordZeroAlloc(t *testing.T) {
	e := New(2, WithLatencyHistograms())
	defer e.Shutdown()
	sink := e.LatencySink(nil)
	onWorker(t, e, func(ctx Context) {
		w := ctx.WorkerID()
		if allocs := testing.AllocsPerRun(100, func() {
			sink.RecordLatency(w, 1234, 5678)
			sink.RecordLatency(w, 1234, 99) // a bucket change settles a run
		}); allocs != 0 {
			t.Errorf("RecordLatency allocates %v per op, want 0", allocs)
		}
	})
	flows, _ := e.LatencyStats()
	if got := flows[0].Exec.Count; got != 202 { // AllocsPerRun warms up once
		t.Fatalf("recorded %d observations, want 202", got)
	}
}
