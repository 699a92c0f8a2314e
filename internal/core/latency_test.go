package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// TestLatencyHistogramsRecordPerExecution wires a real executor built
// WithLatencyHistograms through the LatencyProvider seam: every completed
// task execution records exactly one observation into the topology's sink
// — the unbound default for plain taskflows, the flow's own set for
// flow-bound ones.
func TestLatencyHistogramsRecordPerExecution(t *testing.T) {
	e := executor.New(2, executor.WithLatencyHistograms())
	defer e.Shutdown()

	const chain, runs = 16, 5
	tf := NewShared(e)
	var n atomic.Int64
	prev := tf.Emplace1(func() { n.Add(1) })
	for i := 1; i < chain; i++ {
		next := tf.Emplace1(func() { n.Add(1) })
		prev.Precede(next)
		prev = next
	}
	for r := 0; r < runs; r++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	}

	flows, ok := e.LatencyStats()
	if !ok || len(flows) == 0 || !flows[0].Unbound {
		t.Fatalf("LatencyStats = %v (ok=%v), want unbound sink first", flows, ok)
	}
	unbound := &flows[0]
	if want := uint64(chain * runs); unbound.EndToEnd.Count != want {
		t.Fatalf("unbound e2e count = %d, want %d (one per execution)", unbound.EndToEnd.Count, want)
	}
	if unbound.QueueWait.Count != unbound.EndToEnd.Count || unbound.Exec.Count != unbound.EndToEnd.Count {
		t.Fatal("the three series must record in lockstep")
	}
	// End-to-end is the sum of the two components, recorded from the same
	// instants, so the sums must match exactly.
	if unbound.EndToEnd.Sum != unbound.QueueWait.Sum+unbound.Exec.Sum {
		t.Fatalf("e2e sum %d != queue-wait %d + exec %d",
			unbound.EndToEnd.Sum, unbound.QueueWait.Sum, unbound.Exec.Sum)
	}

	// A flow-bound topology records into the flow's sink, not the default.
	f := e.NewFlow("tenant", executor.FlowConfig{Class: executor.Interactive})
	btf := NewShared(e).SetFlow(f)
	btf.Emplace(func() {}, func() {}, func() {})
	if err := btf.Run(); err != nil {
		t.Fatal(err)
	}
	flows, _ = e.LatencyStats()
	if flows[0].EndToEnd.Count != uint64(chain*runs) {
		t.Fatal("flow-bound run leaked records into the unbound sink")
	}
	var tenant *executor.FlowLatencySummary
	for i := range flows {
		if flows[i].Flow == "tenant" {
			tenant = &flows[i]
		}
	}
	if tenant == nil || tenant.EndToEnd.Count != 3 {
		t.Fatalf("tenant sink = %+v, want 3 records", tenant)
	}
}

// TestLatencyMeasuresExecutionTime sanity-checks the split: a sleeping
// task's execution histogram must dominate its queue wait.
func TestLatencyMeasuresExecutionTime(t *testing.T) {
	e := executor.New(1, executor.WithLatencyHistograms())
	defer e.Shutdown()
	tf := NewShared(e)
	tf.Emplace1(func() { time.Sleep(20 * time.Millisecond) })
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	flows, _ := e.LatencyStats()
	exec := flows[0].Exec.Mean()
	if exec < 15*time.Millisecond {
		t.Fatalf("exec mean = %v for a 20ms task, want >= 15ms", exec)
	}
	if e2e := flows[0].EndToEnd.Mean(); e2e < exec {
		t.Fatalf("e2e mean %v < exec mean %v", e2e, exec)
	}
}

// TestLatencyRetryChargesLastSubmission pins the retry policy: the
// backoff sleep between attempts is policy, not queue wait, so a retried
// task's recorded end-to-end spans only its final (re)submission — not
// the backoff. Only completed executions record: the failed first attempt
// contributes nothing.
func TestLatencyRetryChargesLastSubmission(t *testing.T) {
	const backoff = 60 * time.Millisecond
	e := executor.New(1, executor.WithLatencyHistograms())
	defer e.Shutdown()
	tf := NewShared(e)
	attempts := 0
	tf.EmplaceErr(func() error {
		attempts++
		if attempts == 1 {
			return errors.New("transient")
		}
		return nil
	}).Retry(2, backoff)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	flows, _ := e.LatencyStats()
	st := &flows[0]
	if st.EndToEnd.Count != 1 {
		t.Fatalf("e2e count = %d, want 1 (only the completed execution records)", st.EndToEnd.Count)
	}
	// The backoff waits at least backoff/2 (jittered); an un-restamped
	// ready time would charge that whole wait to queue-wait.
	if got := st.EndToEnd.Mean(); got >= backoff/2 {
		t.Fatalf("e2e mean = %v, includes the retry backoff (>= %v)", got, backoff/2)
	}
}

// TestLatencySkippedTasksNotRecorded: condition branches not taken are
// skipped, not executed, and must record nothing.
func TestLatencySkippedTasksNotRecorded(t *testing.T) {
	e := executor.New(2, executor.WithLatencyHistograms())
	defer e.Shutdown()
	tf := NewShared(e)
	var executed atomic.Uint64
	cond := tf.EmplaceCondition(func() int { executed.Add(1); return 0 })
	taken := tf.Emplace1(func() { executed.Add(1) })
	skipped := tf.Emplace1(func() { executed.Add(1) })
	cond.Precede(taken, skipped)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	flows, _ := e.LatencyStats()
	if flows[0].EndToEnd.Count != executed.Load() {
		t.Fatalf("recorded %d observations for %d executions — skipped task recorded",
			flows[0].EndToEnd.Count, executed.Load())
	}
	if executed.Load() != 2 {
		t.Fatalf("executed = %d, want 2 (cond + taken branch)", executed.Load())
	}
}

// TestRunLinearChainZeroAllocHistogramsOn is TestRunLinearChainZeroAlloc
// with latency histograms armed: the record path (one clock reading per
// hand-off, plain stores into the worker's shard, a settle every 64
// records and at the end of the run) must not add a single allocation to
// the steady-state re-run.
func TestRunLinearChainZeroAllocHistogramsOn(t *testing.T) {
	e := executor.New(2, executor.WithLatencyHistograms())
	defer e.Shutdown()
	tf := NewShared(e)
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 0; i < 63; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil { // build run state outside measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("linear-chain Run with histograms allocates %v objects/run, want 0", allocs)
	}
}

// TestRunLinearChainZeroAllocFlightOn is the same gate with the flight
// recorder armed: continuous event recording into the wrap-around rings
// must stay allocation-free across re-runs.
func TestRunLinearChainZeroAllocFlightOn(t *testing.T) {
	e := executor.New(2, executor.WithFlightRecorder(1<<10))
	defer e.Shutdown()
	tf := NewShared(e)
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 0; i < 63; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("linear-chain Run with flight recorder allocates %v objects/run, want 0", allocs)
	}
}

// TestOneTimestampLaw pins the event spine's clock sharing: with every
// recorder armed, RunStats busy time, the execution histogram's sum and
// the task spans of the flight recorder are three readers of the same
// stamps, so they agree to the nanosecond — and a dependency release is
// stamped with its releasing task's own end stamp. On a chain, where every
// task is handed over as a continuation, that end stamp is also the
// next task's start stamp: one reading per hand-off, and no queue wait but
// the source's.
func TestOneTimestampLaw(t *testing.T) {
	const chain = 256
	e := executor.New(2, executor.WithMetrics(), executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(8*chain)) // holds the whole run per worker
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(true)
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 1; i < chain; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}

	spans, releases := oneTimestampLaw(t, e, tf, chain, chain-1)
	for _, ev := range releases {
		sp := spans[ev.Meta.ID]
		if sp == nil || ev.Ts != sp.end {
			t.Fatalf("release %+v not stamped with its task's end stamp, span %+v", ev, sp)
		}
	}
	// The hand-off law. Ready stamps are raw clock readings, spans are
	// offsets from the recorder's epoch; the first link gives the offset.
	nodes := tf.g.nodes
	base := nodes[1].readyAtNs - int64(spans[nodes[0].traceID].end)
	for i := 1; i < chain; i++ {
		before, sp := spans[nodes[i-1].traceID], spans[nodes[i].traceID]
		if sp.start != before.end {
			t.Fatalf("task %d starts at %v, its releaser ended at %v: two readings for one hand-off", i, sp.start, before.end)
		}
		if ready := time.Duration(nodes[i].readyAtNs - base); ready != before.end {
			t.Fatalf("task %d ready at %v, its releaser ended at %v", i, ready, before.end)
		}
	}
	// So every wait but the source's is zero by construction.
	flows, _ := e.LatencyStats()
	srcWait := spans[nodes[0].traceID].start - time.Duration(nodes[0].readyAtNs-base)
	if got := time.Duration(flows[0].QueueWait.Sum); srcWait < 0 || got != srcWait {
		t.Fatalf("queue-wait histogram sums to %v, the source alone waited %v", got, srcWait)
	}
}

// TestHandOffLawFanOut is the other side of the hand-off law: of the tasks
// one release makes ready, one inherits the releaser's end stamp and the
// rest — popped or stolen later — start at a reading of their own, not
// before they were ready and not inside another span of their worker. The
// three readers of the stamps still agree to the nanosecond.
func TestHandOffLawFanOut(t *testing.T) {
	const width = 64
	e := executor.New(2, executor.WithMetrics(), executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(8*width))
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(true)
	var n atomic.Int64
	src := tf.Emplace1(func() { n.Add(1) })
	for i := 0; i < width; i++ {
		src.Precede(tf.Emplace1(func() { n.Add(1) }))
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	spans, _ := oneTimestampLaw(t, e, tf, width+1, width)
	nodes := tf.g.nodes
	releaser := spans[nodes[0].traceID]
	inherited := 0
	for _, nd := range nodes[1:] {
		sp := spans[nd.traceID]
		if sp.start < releaser.end {
			t.Fatalf("task %d starts at %v, before it was ready at %v", nd.idx, sp.start, releaser.end)
		}
		if sp.start == releaser.end && sp.worker == releaser.worker {
			inherited++
		}
	}
	if inherited < 1 {
		t.Fatal("no task inherited the releaser's end stamp as a continuation")
	}
}

// stampedSpan is one task's span in a flight snapshot.
type stampedSpan struct {
	start, end time.Duration
	worker     int32
}

// oneTimestampLaw reads the three consumers of the worker's stamps after a
// run of tf with tasks task executions and checks that they are one
// reading: RunStats busy, the execution histogram's sum and the summed
// flight spans, none of which overlap on a worker. It returns the spans by
// task identity and the release events.
func oneTimestampLaw(t *testing.T, e *executor.Executor, tf *Taskflow, tasks, wantReleases int) (map[uint64]*stampedSpan, []executor.TraceEvent) {
	t.Helper()
	rs, ok := tf.LastRunStats()
	if !ok || rs.Tasks != int64(tasks) {
		t.Fatalf("RunStats = %+v (ok=%v), want %d tasks", rs, ok, tasks)
	}
	flows, _ := e.LatencyStats()
	var exec executor.LatencySnapshot
	for i := range flows {
		exec.Merge(&flows[i].Exec)
	}
	fl, _ := e.FlightSnapshot()
	if fl.Dropped != 0 {
		t.Fatalf("flight window too small for the run: dropped %d", fl.Dropped)
	}
	spans := map[uint64]*stampedSpan{}
	lastEnd := map[int32]time.Duration{}
	var releases []executor.TraceEvent
	var spanSum time.Duration
	for _, ev := range fl.Events {
		switch ev.Kind {
		case executor.EvTaskStart:
			if ev.Ts < lastEnd[ev.Worker] {
				t.Fatalf("task starts at %v inside worker %d's last span, which ended at %v", ev.Ts, ev.Worker, lastEnd[ev.Worker])
			}
			spans[ev.Meta.ID] = &stampedSpan{start: ev.Ts, end: -1, worker: ev.Worker}
		case executor.EvTaskEnd:
			sp := spans[ev.Meta.ID]
			if sp == nil || sp.end >= 0 {
				t.Fatalf("task end without a single open start: %+v", ev)
			}
			sp.end, lastEnd[ev.Worker] = ev.Ts, ev.Ts
			spanSum += sp.end - sp.start
		case executor.EvDepRelease:
			releases = append(releases, ev)
		}
	}
	if len(spans) != tasks || len(releases) != wantReleases {
		t.Fatalf("flight holds %d spans and %d releases, want %d and %d",
			len(spans), len(releases), tasks, wantReleases)
	}
	if exec.Count != uint64(tasks) || time.Duration(exec.Sum) != rs.Busy || spanSum != rs.Busy {
		t.Fatalf("busy %v, exec histogram sum %v (n=%d), flight span sum %v: not one reading",
			rs.Busy, time.Duration(exec.Sum), exec.Count, spanSum)
	}
	return spans, releases
}

// TestLatencyLiveReaderLag bounds what owner-private records cost a reader
// that does not wait for a run to end: while a long chain runs, the
// histograms trail the executed counter by at most the unsettled records a
// worker may hold (fewer than 64) plus the task it is inside of.
func TestLatencyLiveReaderLag(t *testing.T) {
	const workers, lagPerWorker = 2, 64
	e := executor.New(workers, executor.WithMetrics(), executor.WithLatencyHistograms())
	defer e.Shutdown()
	tf := NewShared(e)
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 1; i < 10000; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	// The chain re-runs until the reader has caught it moving often enough.
	var stop atomic.Bool
	runs := make(chan error, 1)
	go func() {
		var err error
		for err == nil && !stop.Load() {
			err = tf.Run()
		}
		runs <- err
	}()
	recorded := func() uint64 {
		flows, _ := e.LatencyStats()
		return flows[0].Exec.Count
	}
	var last uint64
	for live := 0; live < 50; {
		// Executed first: both only grow, so reading it first can only
		// understate how close the histograms follow.
		snap, _ := e.MetricsSnapshot()
		executed := snap.Total().Executed
		if got := recorded(); got+workers*lagPerWorker < executed {
			t.Errorf("histograms hold %d records with %d tasks executed: %d behind, bound %d",
				got, executed, executed-got, workers*lagPerWorker)
			break
		}
		if executed != last {
			live++
		}
		last = executed
	}
	stop.Store(true)
	if err := <-runs; err != nil {
		t.Fatal(err)
	}
	snap, _ := e.MetricsSnapshot()
	if got, executed := recorded(), snap.Total().Executed; got != executed {
		t.Fatalf("at rest the histograms hold %d records for %d tasks executed", got, executed)
	}
}
