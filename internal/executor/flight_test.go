package executor

import (
	"sync"
	"testing"
	"time"
)

// waitParked blocks until every worker of an idle executor has parked, so
// the workers' own rings stay quiet while a test writes the external one.
func waitParked(t *testing.T, e *Executor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedCount(e.ec) != len(e.workers) {
		if time.Now().After(deadline) {
			t.Fatal("workers never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// externalEvents filters a trace down to the external ring's events.
func externalEvents(tr Trace) []TraceEvent {
	var out []TraceEvent
	for _, ev := range tr.Events {
		if ev.Worker == ExternalWorker {
			out = append(out, ev)
		}
	}
	return out
}

// TestFlightWrapAroundAccounting pins the drop-oldest snapshot protocol:
// a ring that recorded more events than the flight window yields the
// newest window, and everything older is counted as dropped — kept +
// dropped equals everything ever recorded.
func TestFlightWrapAroundAccounting(t *testing.T) {
	e := New(1, WithFlightRecorder(8))
	defer e.Shutdown()
	waitParked(t, e)
	before, _ := e.FlightSnapshot() // the worker's own events on its way to parking
	if before.Dropped != 0 {
		t.Fatalf("dropped %d events before anything wrapped", before.Dropped)
	}
	// Enough to lap the whole ring (two segments), not just the window.
	const total = 5 * ringSegLen
	for i := 0; i < total; i++ {
		e.TraceExternal(EvTaskStart, TaskMeta{ID: uint64(i) + 1}, 0)
	}
	tr, ok := e.FlightSnapshot()
	if !ok {
		t.Fatal("FlightSnapshot not ok")
	}
	if got, want := uint64(len(tr.Events))+tr.Dropped, uint64(total+len(before.Events)); got != want {
		t.Fatalf("kept %d + dropped %d != recorded %d", len(tr.Events), tr.Dropped, want)
	}
	// The snapshot keeps the full window, and it must be the newest one.
	ext := externalEvents(tr)
	if len(ext) != 8 {
		t.Fatalf("kept %d events of an 8-event window, want 8", len(ext))
	}
	for i, ev := range ext {
		if want := uint64(total - 8 + i + 1); ev.Meta.ID != want {
			t.Fatalf("event %d has ID %d, want %d (newest window)", i, ev.Meta.ID, want)
		}
	}
}

// TestCaptureWindowWhileFlightWraps is the two-readers law: a capture
// started and stopped while the flight recorder laps the ring several
// times returns exactly the events recorded between the two calls, in
// order, and each reader accounts its own drops exactly.
func TestCaptureWindowWhileFlightWraps(t *testing.T) {
	const flightWin, captureWin = 16, 3 * ringSegLen
	e := New(1, WithFlightRecorder(flightWin), WithTracing(captureWin))
	defer e.Shutdown()
	waitParked(t, e)
	record := func(from, to int) {
		for i := from; i < to; i++ {
			e.TraceExternal(EvTaskStart, TaskMeta{ID: uint64(i) + 1}, 0)
		}
	}
	ringLen := len(e.spine.rings[0].buf)
	const pre, in = 1000, 150 // in < captureWin: the capture must lose nothing
	if pre < 3*ringLen {
		t.Fatalf("%d events do not lap a %d-slot ring several times", pre, ringLen)
	}
	record(0, pre)
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	record(pre, pre+in)
	capt, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	record(pre+in, pre+in+10)

	if capt.Dropped != 0 || len(capt.Events) != in {
		t.Fatalf("capture kept %d dropped %d, want %d/0", len(capt.Events), capt.Dropped, in)
	}
	for i, ev := range capt.Events {
		if want := uint64(pre + i + 1); ev.Meta.ID != want {
			t.Fatalf("capture event %d has ID %d, want %d", i, ev.Meta.ID, want)
		}
	}
	fl, _ := e.FlightSnapshot()
	ext := externalEvents(fl)
	if len(ext) != flightWin || ext[0].Meta.ID != pre+in+10-flightWin+1 {
		t.Fatalf("flight window = %d events from ID %d, want %d from %d",
			len(ext), ext[0].Meta.ID, flightWin, pre+in+10-flightWin+1)
	}
	workerEvents := len(fl.Events) - len(ext)
	if got, want := uint64(len(fl.Events))+fl.Dropped, uint64(pre+in+10+workerEvents); got != want {
		t.Fatalf("flight kept+dropped = %d, want %d", got, want)
	}

	// A capture longer than its window keeps the newest captureWin events
	// and counts the rest.
	e.StartTrace()
	record(0, captureWin+40)
	capt, _ = e.StopTrace()
	if len(capt.Events) != captureWin || capt.Dropped != 40 || capt.Events[0].Meta.ID != 41 {
		t.Fatalf("overlong capture kept %d dropped %d first ID %d, want %d/40/41",
			len(capt.Events), capt.Dropped, capt.Events[0].Meta.ID, captureWin)
	}
}

// TestFlightSnapshotSortedAndContinuous runs real work with no capture
// session: the armed recorder alone must hold task events, and the merged
// snapshot must be time-ordered.
func TestFlightSnapshotSortedAndContinuous(t *testing.T) {
	e := New(2, WithFlightRecorder(0))
	defer e.Shutdown()
	if !e.FlightEnabled() {
		t.Fatal("FlightEnabled = false")
	}
	drain(t, e, 200)
	tr, ok := e.FlightSnapshot()
	if !ok || len(tr.Events) == 0 {
		t.Fatalf("snapshot empty (ok=%v) after 200 tasks", ok)
	}
	starts := 0
	var last time.Duration = -1
	for i, ev := range tr.Events {
		if ev.Ts < last {
			t.Fatalf("event %d out of order: %v after %v", i, ev.Ts, last)
		}
		last = ev.Ts
		if ev.Kind == EvTaskStart {
			starts++
		}
	}
	if starts == 0 {
		t.Fatal("no task-start events in the flight window")
	}
	// Snapshot does not stop recording: more work keeps landing.
	drain(t, e, 50)
	tr2, _ := e.FlightSnapshot()
	if uint64(len(tr2.Events))+tr2.Dropped <= uint64(len(tr.Events))+tr.Dropped {
		t.Fatal("recorder stopped accumulating after a snapshot")
	}
}

// TestFlightComposesWithTraceCapture proves the black box and a capture
// session record independently from the shared instrumentation points.
func TestFlightComposesWithTraceCapture(t *testing.T) {
	e := New(1, WithFlightRecorder(0), WithTracing(0))
	defer e.Shutdown()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	drain(t, e, 100)
	cap, ok := e.StopTrace()
	if !ok || len(cap.Events) == 0 {
		t.Fatal("capture session recorded nothing")
	}
	fl, ok := e.FlightSnapshot()
	if !ok || len(fl.Events) == 0 {
		t.Fatal("flight recorder recorded nothing alongside the capture")
	}
	// After the capture stops, the flight recorder keeps going.
	drain(t, e, 20)
	fl2, _ := e.FlightSnapshot()
	if uint64(len(fl2.Events))+fl2.Dropped <= uint64(len(fl.Events))+fl.Dropped {
		t.Fatal("flight recorder stopped with the capture session")
	}
}

// TestFlightSnapshotWhileRecording races snapshots against a live
// workload (run under -race): snapshots never block writers and always
// return a sorted, internally consistent window.
func TestFlightSnapshotWhileRecording(t *testing.T) {
	e := New(2, WithFlightRecorder(64))
	defer e.Shutdown()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			drain(t, e, 20)
		}
	}()
	for i := 0; i < 200; i++ {
		tr, ok := e.FlightSnapshot()
		if !ok {
			t.Error("snapshot not ok mid-run")
			break
		}
		var last time.Duration = -1
		for j, ev := range tr.Events {
			if ev.Ts < last {
				t.Errorf("snapshot %d: event %d out of order", i, j)
				break
			}
			last = ev.Ts
		}
	}
	close(stop)
	wg.Wait()
}

func TestFlightDisabledByDefault(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	if e.FlightEnabled() {
		t.Fatal("FlightEnabled without the option")
	}
	if _, ok := e.FlightSnapshot(); ok {
		t.Fatal("FlightSnapshot ok when disabled")
	}
}

// TestFlightRecordZeroAlloc gates the armed record path: one slot write
// and one atomic publication, no allocation. Runs under the CI alloc-gate
// job.
func TestFlightRecordZeroAlloc(t *testing.T) {
	e := New(1, WithFlightRecorder(256))
	defer e.Shutdown()
	meta := TaskMeta{ID: 7, Name: "gate"}
	if allocs := testing.AllocsPerRun(100, func() {
		e.TraceExternal(EvTaskStart, meta, 0)
	}); allocs != 0 {
		t.Fatalf("flight record allocates %v per op, want 0", allocs)
	}
}

// TestFlightShowsBlockedTask pins publication at task start: a task stuck
// in its body is in the flight window although its worker has published
// nothing since — no poll, the body itself runs after the publication.
func TestFlightShowsBlockedTask(t *testing.T) {
	e := New(1, WithFlightRecorder(0))
	defer e.Shutdown()
	meta := TaskMeta{Flow: "flow", Name: "stuck", ID: 42}
	inside, release := make(chan struct{}), make(chan struct{})
	d := newMetaTask(meta, func(Context) {
		close(inside)
		<-release
	})
	if err := e.Submit(&d.rbox); err != nil {
		t.Fatal(err)
	}
	<-inside
	tr, _ := e.FlightSnapshot()
	starts, ends := 0, 0
	for _, ev := range tr.Events {
		if ev.Meta == meta {
			switch ev.Kind {
			case EvTaskStart:
				starts++
			case EvTaskEnd:
				ends++
			}
		}
	}
	if starts != 1 || ends != 0 {
		t.Fatalf("blocked task shows %d starts and %d ends in the flight window, want 1 and 0", starts, ends)
	}
	close(release)
}

// TestSettlePublishesForeignTask is the Settle contract for a task the
// executor knows nothing about: what its worker recorded up to the call —
// the task's end event and its latency record included — is readable by
// whoever the task releases next, and invoke does not end the span twice.
func TestSettlePublishesForeignTask(t *testing.T) {
	e := New(2, WithFlightRecorder(0), WithLatencyHistograms())
	defer e.Shutdown()
	sink := e.LatencySink(nil)
	const tasks = 50
	for i := 1; i <= tasks; i++ {
		onWorker(t, e, func(ctx Context) {
			sink.RecordLatency(ctx.WorkerID(), 0, 1)
		})
		tr, _ := e.FlightSnapshot()
		starts, ends := 0, 0
		for _, ev := range tr.Events {
			switch ev.Kind {
			case EvTaskStart:
				starts++
			case EvTaskEnd:
				ends++
			}
		}
		flows, _ := e.LatencyStats()
		if starts != i || ends != i || flows[0].Exec.Count != uint64(i) {
			t.Fatalf("after task %d: %d starts, %d ends, %d latency records", i, starts, ends, flows[0].Exec.Count)
		}
	}
}
