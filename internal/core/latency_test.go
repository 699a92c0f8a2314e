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
// with latency histograms armed: the record path (two clock reads, a
// stamp, three shard-local atomic adds per dimension) must not add a
// single allocation to the steady-state re-run.
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
// the task spans of the flight recorder are three readers of the same two
// stamps per task, so they agree to the nanosecond — and a dependency
// release is stamped with its releasing task's own end stamp.
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

	rs, ok := tf.LastRunStats()
	if !ok || rs.Tasks != chain {
		t.Fatalf("RunStats = %+v (ok=%v), want %d tasks", rs, ok, chain)
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
	type span struct{ start, end time.Duration }
	spans := map[uint64]*span{}
	var releases []executor.TraceEvent
	var spanSum time.Duration
	for _, ev := range fl.Events {
		switch ev.Kind {
		case executor.EvTaskStart:
			spans[ev.Meta.ID] = &span{start: ev.Ts, end: -1}
		case executor.EvTaskEnd:
			sp := spans[ev.Meta.ID]
			if sp == nil || sp.end >= 0 {
				t.Fatalf("task end without a single open start: %+v", ev)
			}
			sp.end = ev.Ts
			spanSum += sp.end - sp.start
		case executor.EvDepRelease:
			releases = append(releases, ev)
		}
	}
	if len(spans) != chain || len(releases) != chain-1 {
		t.Fatalf("flight holds %d spans and %d releases, want %d and %d",
			len(spans), len(releases), chain, chain-1)
	}
	if exec.Count != chain || time.Duration(exec.Sum) != rs.Busy || spanSum != rs.Busy {
		t.Fatalf("busy %v, exec histogram sum %v (n=%d), flight span sum %v: not one reading",
			rs.Busy, time.Duration(exec.Sum), exec.Count, spanSum)
	}
	for _, ev := range releases {
		sp := spans[ev.Meta.ID]
		if sp == nil || ev.Ts < sp.start || ev.Ts > sp.end {
			t.Fatalf("release %+v outside its task's span %+v", ev, sp)
		}
		if ev.Ts != sp.end {
			t.Fatalf("release stamped %v, its task's end stamp is %v", ev.Ts, sp.end)
		}
	}
}
