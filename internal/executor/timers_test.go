package executor

// Regression tests for the armed-timer registry behind Scheduler.AfterFunc
// — the fix for retry timers firing into a dead pool: a timer armed when
// Shutdown begins is resolved during Shutdown (its callback runs, observes
// the stopped executor, and gets ErrShutdown on submission) instead of
// firing minutes later against freed workers.

import (
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/testutil"
)

func TestAfterFuncFires(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(2)
	defer e.Shutdown()
	var fired atomic.Int64
	e.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	waitCounter(t, &fired, 1)
	testutil.Eventually(t, time.Second, func() bool { return e.ArmedTimers() == 0 },
		"fired timer still registered: ArmedTimers() = %d", e.ArmedTimers())
}

func TestAfterFuncStop(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(2)
	defer e.Shutdown()
	var fired atomic.Int64
	tm := e.AfterFunc(time.Hour, func() { fired.Add(1) })
	if e.ArmedTimers() != 1 {
		t.Fatalf("ArmedTimers() = %d, want 1", e.ArmedTimers())
	}
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer returned false")
	}
	if e.ArmedTimers() != 0 {
		t.Fatalf("ArmedTimers() after Stop = %d, want 0", e.ArmedTimers())
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if fired.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestShutdownFiresArmedTimers(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(2)
	var sawStopped atomic.Bool
	var submitErr atomic.Value
	e.AfterFunc(time.Hour, func() {
		sawStopped.Store(e.Stopped())
		if err := e.Submit(NewTask(func(Context) {})); err != nil {
			submitErr.Store(err)
		}
	})
	start := time.Now()
	e.Shutdown()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Shutdown waited %v on an hour-scale timer", d)
	}
	if !sawStopped.Load() {
		t.Fatal("armed timer callback did not run during Shutdown (or saw a live pool)")
	}
	if err, _ := submitErr.Load().(error); err != ErrShutdown {
		t.Fatalf("submission from shutdown-resolved timer = %v, want ErrShutdown", err)
	}
	if e.ArmedTimers() != 0 {
		t.Fatalf("ArmedTimers() after Shutdown = %d, want 0", e.ArmedTimers())
	}
}

func TestAfterFuncPostShutdownRunsInline(t *testing.T) {
	testutil.NoLeaks(t)
	e := New(1)
	e.Shutdown()
	ran := false
	tm := e.AfterFunc(time.Hour, func() { ran = true })
	if !ran {
		t.Fatal("post-Shutdown AfterFunc did not run the callback inline")
	}
	if tm.Stop() {
		t.Fatal("Stop on an already-resolved timer returned true")
	}
}
