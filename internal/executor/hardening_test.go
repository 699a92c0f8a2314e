package executor

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSubmitAfterShutdownReturnsErrShutdown(t *testing.T) {
	e := New(2)
	e.Shutdown()
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Shutdown")
	}
	if err := e.Submit(NewTask(func(Context) {})); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShutdown", err)
	}
	if err := e.Submit(NewTask(func(Context) {})); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShutdown", err)
	}
	batch := []*Runnable{NewTask(func(Context) {}), NewTask(func(Context) {})}
	if err := e.SubmitBatch(batch); !errors.Is(err, ErrShutdown) {
		t.Fatalf("SubmitBatch after Shutdown = %v, want ErrShutdown", err)
	}
}

func TestPanicContainedAndRecorded(t *testing.T) {
	e := New(2)
	var n atomic.Int64
	e.Submit(NewTask(func(Context) { panic("task exploded") }))
	// The pool survives the panic: later tasks still run.
	for i := 0; i < 100; i++ {
		e.Submit(NewTask(func(Context) { n.Add(1) }))
	}
	waitCounter(t, &n, 100)
	e.Shutdown()
	err := e.PanicError()
	if err == nil || !strings.Contains(err.Error(), "task exploded") {
		t.Fatalf("PanicError() = %v, want recorded panic", err)
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Fatalf("PanicError() = %v, want the worker identified", err)
	}
}

func TestPanicRecordingIsBounded(t *testing.T) {
	e := New(4)
	var n atomic.Int64
	for i := 0; i < MaxRecordedPanics+50; i++ {
		e.Submit(NewTask(func(Context) { defer n.Add(1); panic("again") }))
	}
	waitCounter(t, &n, MaxRecordedPanics+50)
	e.Shutdown()
	e.panicMu.Lock()
	recorded := len(e.panics)
	e.panicMu.Unlock()
	if recorded != MaxRecordedPanics {
		t.Fatalf("recorded %d panics, want capped at %d", recorded, MaxRecordedPanics)
	}
}
