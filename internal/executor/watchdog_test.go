package executor

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStallDetectorObserve unit-tests the pure no-progress detector:
// primes on first sample, fires once per flat episode, re-arms on
// progress or an empty queue.
func TestStallDetectorObserve(t *testing.T) {
	d := NewStallDetector(100*time.Millisecond, 0)

	if _, fired := d.Observe(0, 0, 5); fired {
		t.Fatal("fired on the priming sample")
	}
	if _, fired := d.Observe(50*time.Millisecond, 0, 5); fired {
		t.Fatal("fired before stallAfter elapsed")
	}
	detail, fired := d.Observe(150*time.Millisecond, 0, 5)
	if !fired {
		t.Fatal("did not fire after 150ms flat with queued work")
	}
	if !strings.Contains(detail, "5 tasks queued") {
		t.Fatalf("detail %q does not name the queue depth", detail)
	}
	if _, fired := d.Observe(300*time.Millisecond, 0, 5); fired {
		t.Fatal("fired twice in one stall episode")
	}

	// Progress re-arms: another flat stretch fires again.
	if _, fired := d.Observe(350*time.Millisecond, 1, 5); fired {
		t.Fatal("fired on a progress sample")
	}
	if _, fired := d.Observe(500*time.Millisecond, 1, 5); !fired {
		t.Fatal("did not re-fire after progress and a new flat stretch")
	}

	// An empty queue never stalls, no matter how flat the counter.
	d2 := NewStallDetector(10*time.Millisecond, 0)
	for i, now := 0, time.Duration(0); i < 10; i, now = i+1, now+20*time.Millisecond {
		if _, fired := d2.Observe(now, 7, 0); fired {
			t.Fatal("fired with an empty queue")
		}
	}
}

// flowSample builds a FlowStats row with just the fields the detector
// reads.
func flowSample(name string, class PriorityClass, weight int, drains uint64, backlog int) FlowStats {
	return FlowStats{Name: name, Class: class, Weight: weight, DrainOps: drains, Backlog: backlog}
}

// TestStallDetectorObserveFlows unit-tests the starvation detector: a
// backlogged flow whose own drains are flat while its class rotates past
// gapFactor × Σweights fires; first observations and serviced flows never
// do.
func TestStallDetectorObserveFlows(t *testing.T) {
	d := NewStallDetector(0, 4) // bound = 4 × Σweights = 4 × 2 = 8

	base := []FlowStats{
		flowSample("a", Batch, 1, 0, 0),
		flowSample("b", Batch, 1, 0, 3),
	}
	if _, fired := d.ObserveFlows(base); fired {
		t.Fatal("fired on first observation (marks not yet primed)")
	}

	// Class advances 8 drains, all on flow a; gap == bound, not past it.
	step1 := []FlowStats{
		flowSample("a", Batch, 1, 8, 0),
		flowSample("b", Batch, 1, 0, 3),
	}
	if detail, fired := d.ObserveFlows(step1); fired {
		t.Fatalf("fired at gap == bound: %s", detail)
	}

	// One more class drain pushes the gap past the bound.
	step2 := []FlowStats{
		flowSample("a", Batch, 1, 9, 0),
		flowSample("b", Batch, 1, 0, 3),
	}
	detail, fired := d.ObserveFlows(step2)
	if !fired {
		t.Fatal("did not fire with a backlogged flow bypassed past the bound")
	}
	if !strings.Contains(detail, `"b"`) {
		t.Fatalf("detail %q does not name the starved flow", detail)
	}

	// The firing re-marked the flow: the same sample stays quiet until the
	// class rotates another full gap.
	if _, fired := d.ObserveFlows(step2); fired {
		t.Fatal("fired twice without further class drains")
	}

	// A drain of the starved flow (or an emptied backlog) re-marks it.
	step3 := []FlowStats{
		flowSample("a", Batch, 1, 30, 0),
		flowSample("b", Batch, 1, 1, 3),
	}
	if _, fired := d.ObserveFlows(step3); fired {
		t.Fatal("fired though the flow was just serviced")
	}

	// A flow appended later is marked at current counters — never a
	// first-observation firing, even with a huge standing class drain count.
	step4 := []FlowStats{
		flowSample("a", Batch, 1, 60, 0),
		flowSample("b", Batch, 1, 1, 3),
		flowSample("c", Batch, 1, 0, 9),
	}
	if detail, fired := d.ObserveFlows(step4); fired && strings.Contains(detail, `"c"`) {
		t.Fatal("new flow fired on its first observation")
	}
}

func TestWatchdogRequiresMetrics(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	if _, err := e.StartWatchdog(WatchdogConfig{}); err == nil {
		t.Fatal("StartWatchdog succeeded without WithMetrics")
	}
}

// TestWatchdogFiresOnBlockedWorkers is the end-to-end stall: every worker
// blocked inside a task body with more work queued behind them. The
// watchdog must fire a no-progress report carrying the always-on
// attachments (flow stats, latency summaries, flight dump) and the
// OnStall callback.
func TestWatchdogFiresOnBlockedWorkers(t *testing.T) {
	const workers = 2
	e := New(workers, WithMetrics(), WithLatencyHistograms(), WithFlightRecorder(0))
	defer e.Shutdown()

	reports := make(chan *StallReport, 4)
	wd, err := e.StartWatchdog(WatchdogConfig{
		Interval:   5 * time.Millisecond,
		StallAfter: 30 * time.Millisecond,
		OnStall:    func(r *StallReport) { reports <- r },
	})
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var started, blocked sync.WaitGroup
	started.Add(workers)
	blocked.Add(workers)
	for i := 0; i < workers; i++ {
		if err := e.Submit(NewTask(func(Context) {
			started.Done()
			<-release
			blocked.Done()
		})); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
	// Queued work behind the blocked workers: the no-progress signature.
	var drained sync.WaitGroup
	drained.Add(4)
	for i := 0; i < 4; i++ {
		if err := e.Submit(NewTask(func(Context) { drained.Done() })); err != nil {
			t.Fatal(err)
		}
	}

	var rep *StallReport
	select {
	case rep = <-reports:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire within 5s of a full stall")
	}
	if rep.Reason != ReasonNoProgress {
		t.Fatalf("reason = %q, want %q", rep.Reason, ReasonNoProgress)
	}
	if rep.Queued == 0 {
		t.Fatal("report shows no queued work during the stall")
	}
	if rep.Latency == nil {
		t.Fatal("report missing latency summaries despite WithLatencyHistograms")
	}
	if rep.Flight == nil || len(rep.Flight.Events) == 0 {
		t.Fatal("report missing flight dump despite WithFlightRecorder")
	}
	// The dump names what the workers are stuck in: a start event is
	// published when it is written, not with the task's end.
	open := 0
	for _, ev := range rep.Flight.Events {
		switch ev.Kind {
		case EvTaskStart:
			open++
		case EvTaskEnd:
			open--
		}
	}
	if open != workers {
		t.Fatalf("flight dump shows %d tasks in progress, want the %d blocked ones", open, workers)
	}
	if wd.Firings() == 0 || wd.LastReport() == nil {
		t.Fatal("Firings/LastReport inconsistent with the delivered report")
	}

	close(release)
	blocked.Wait()
	drained.Wait()
	wd.Stop()
}

// TestWatchdogQuietOnHealthyLoad is the false-positive control: a steady
// stream of fast tasks with an aggressive watchdog must produce zero
// firings.
func TestWatchdogQuietOnHealthyLoad(t *testing.T) {
	e := New(2, WithMetrics())
	defer e.Shutdown()
	wd, err := e.StartWatchdog(WatchdogConfig{
		Interval:   2 * time.Millisecond,
		StallAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		drain(t, e, 50)
	}
	wd.Stop()
	if n := wd.Firings(); n != 0 {
		t.Fatalf("watchdog fired %d times on a healthy workload: %+v", n, wd.LastReport())
	}
}
