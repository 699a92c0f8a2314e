package executor

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// describedTask is a Runnable that carries identity, like graph nodes do.
type describedTask struct {
	rbox Runnable
	meta TaskMeta
	fn   func(Context)
}

func newDescribedTask(meta TaskMeta, fn func(Context)) *describedTask {
	d := &describedTask{meta: meta, fn: fn}
	d.rbox = d
	return d
}

func (d *describedTask) Run(ctx Context)    { d.fn(ctx) }
func (d *describedTask) Describe() TaskMeta { return d.meta }

func TestTraceDisabledWithoutOption(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	if e.TracingEnabled() {
		t.Fatal("TracingEnabled without WithTracing")
	}
	if e.StartTrace() {
		t.Fatal("StartTrace succeeded without WithTracing")
	}
	if _, ok := e.StopTrace(); ok {
		t.Fatal("StopTrace succeeded without WithTracing")
	}
	// Instrumentation points must be inert.
	var n atomic.Int64
	e.Submit(NewTask(func(Context) { n.Add(1) }))
	waitCounter(t, &n, 1)
}

func TestTraceCaptureLifecycle(t *testing.T) {
	e := New(2, WithTracing(1024))
	defer e.Shutdown()
	if !e.TracingEnabled() {
		t.Fatal("TracingEnabled false despite WithTracing")
	}
	if e.TraceActive() {
		t.Fatal("capture active before StartTrace")
	}
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	if e.StartTrace() {
		t.Fatal("second StartTrace succeeded while active")
	}
	if !e.TraceActive() {
		t.Fatal("capture not active after StartTrace")
	}

	// Each task settles before it lets the waiter go, as an owner of tasks
	// must: its end event is then in the capture, not racing StopTrace.
	var n atomic.Int64
	body := func(ctx Context) { ctx.Settle(); n.Add(1) }
	meta := TaskMeta{Flow: "flow", Name: "alpha", ID: 7, Idx: 3, Gen: 1}
	d := newDescribedTask(meta, body)
	e.Submit(&d.rbox)
	for i := 0; i < 9; i++ {
		e.Submit(NewTask(body))
	}
	waitCounter(t, &n, 10)

	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if e.TraceActive() {
		t.Fatal("capture still active after StopTrace")
	}
	if tr.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", tr.Workers)
	}
	if tr.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped)
	}

	var starts, ends, pushes int
	var sawMeta bool
	for i, ev := range tr.Events {
		if i > 0 && ev.Ts < tr.Events[i-1].Ts {
			t.Fatal("events not time-ordered")
		}
		switch ev.Kind {
		case EvTaskStart:
			starts++
			if ev.Meta == meta {
				sawMeta = true
			}
		case EvTaskEnd:
			ends++
		case EvInjectPush:
			pushes++
			if ev.Worker != ExternalWorker {
				t.Fatalf("EvInjectPush attributed to worker %d", ev.Worker)
			}
		}
	}
	if starts != 10 || ends != 10 {
		t.Fatalf("starts/ends = %d/%d, want 10/10", starts, ends)
	}
	if pushes != 10 {
		t.Fatalf("inject pushes = %d, want 10", pushes)
	}
	if !sawMeta {
		t.Fatal("described task's TaskMeta not carried into its span events")
	}
}

func TestTraceWindowKeepsNewest(t *testing.T) {
	// A one-event window per ring: a capture keeps each ring's newest event
	// and counts every older one as dropped.
	e := New(2, WithTracing(1))
	defer e.Shutdown()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
	}
	waitCounter(t, &n, 100)
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if len(tr.Events) > 3 { // one event per worker ring + one external
		t.Fatalf("%d events returned from one-event windows", len(tr.Events))
	}
	if tr.Dropped == 0 {
		t.Fatal("no drops counted despite overflowing one-event windows")
	}
}

func TestTraceSchedulerEvents(t *testing.T) {
	// Submitting from outside onto an idle pool structurally guarantees
	// inject-push, precise-wake, inject-drain and unpark events.
	e := New(2, WithTracing(4096))
	defer e.Shutdown()

	// Let the workers park first.
	time.Sleep(20 * time.Millisecond)
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
	}
	waitCounter(t, &n, 20)
	tr, _ := e.StopTrace()

	kinds := map[EventKind]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []EventKind{EvInjectPush, EvInjectDrain, EvWakePrecise, EvUnpark} {
		if kinds[want] == 0 {
			t.Errorf("no %v events recorded (kinds: %v)", want, kinds)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("EventKind %d has no name", k)
		}
		if strings.ToLower(s) != s {
			t.Fatalf("EventKind name %q not lowercase", s)
		}
	}
	if numEventKinds.String() != "unknown" {
		t.Fatal("out-of-range EventKind should stringify as unknown")
	}
}

// TestHandOffStampDiesWithCapture: the end stamp a task leaves for its
// continuation must not survive recording being switched off. A stops the
// capture it runs under and continues B; B runs unrecorded, starts a new
// capture and continues C. C's start stamp is then a reading of its own —
// not A's end stamp, carried past B.
func TestHandOffStampDiesWithCapture(t *testing.T) {
	e := New(1, WithTracing(64))
	defer e.Shutdown()
	var bEnd, cStart int64
	done := make(chan struct{})
	c := NewTask(func(ctx Context) {
		cStart = ctx.StartStamp()
		close(done)
	})
	b := NewTask(func(ctx Context) {
		e.StartTrace()
		bEnd = Nanos()
		ctx.Continue(c)
		(*c).Run(ctx)
	})
	a := NewTask(func(ctx Context) {
		e.StopTrace()
		ctx.Continue(b)
		(*b).Run(ctx)
	})
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	if err := e.Submit(a); err != nil {
		t.Fatal(err)
	}
	<-done
	if cStart < bEnd {
		t.Fatalf("C starts at %d, before B — which ran unrecorded — ended at %d: a stale hand-off stamp", cStart, bEnd)
	}
}
