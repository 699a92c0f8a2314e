package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// everythingOn is the README's production-monitoring executor with a flight
// window wide enough that the runs below drop nothing.
func everythingOn(workers int) *executor.Executor {
	return executor.New(workers, executor.WithMetrics(), executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(1<<15))
}

// flightSpans is what a flight snapshot says about the tasks of one flow:
// how many started and ended, and the summed length of the spans whose body
// ran (a skipped execution has a span but no body).
type flightSpans struct {
	starts, ends int
	bodySum      time.Duration
}

// readFlight pairs the start and end events of flow's tasks worker by
// worker, in the order the worker wrote them.
func readFlight(t *testing.T, e *executor.Executor, flow string) flightSpans {
	t.Helper()
	tr, ok := e.FlightSnapshot()
	if !ok || tr.Dropped != 0 {
		t.Fatalf("flight snapshot ok=%v dropped=%d, want the whole run", ok, tr.Dropped)
	}
	type span struct {
		start   time.Duration
		id      uint64
		skipped bool
	}
	var fs flightSpans
	open := map[int32]*span{}
	for _, ev := range tr.Events {
		if ev.Meta.Flow != flow || ev.Worker == executor.ExternalWorker {
			continue
		}
		switch ev.Kind {
		case executor.EvTaskStart:
			if sp := open[ev.Worker]; sp != nil {
				t.Fatalf("worker %d starts task %d inside the span of task %d", ev.Worker, ev.Meta.ID, sp.id)
			}
			open[ev.Worker] = &span{start: ev.Ts, id: ev.Meta.ID}
			fs.starts++
		case executor.EvSkip:
			if sp := open[ev.Worker]; sp != nil && sp.id == ev.Meta.ID {
				sp.skipped = true
			}
		case executor.EvTaskEnd:
			sp := open[ev.Worker]
			if sp == nil || sp.id != ev.Meta.ID {
				t.Fatalf("worker %d ends task %d without its start", ev.Worker, ev.Meta.ID)
			}
			if !sp.skipped {
				fs.bodySum += ev.Ts - sp.start
			}
			delete(open, ev.Worker)
			fs.ends++
		}
	}
	return fs
}

// flowLatency returns the histograms of the named flow ("": the unbound
// sink).
func flowLatency(t *testing.T, e *executor.Executor, flow string) executor.FlowLatencyStats {
	t.Helper()
	rows, _ := e.LatencyStats()
	for i := range rows {
		if rows[i].Flow == flow {
			return rows[i].FlowLatencyStats
		}
	}
	t.Fatalf("no latency row for flow %q", flow)
	return executor.FlowLatencyStats{}
}

// settledWant is what a flow's records must add up to: the sum over its
// runs so far of what RunStats and the task bodies counted.
type settledWant struct {
	records, spans int64
	busy           time.Duration
	retried        bool
}

// assertSettled is the law: the moment a waiter is released, every record of
// its topology is readable. rs are the stats of the run that just returned,
// bodies what its task bodies counted themselves; want holds the runs before
// it and is brought up to date.
func assertSettled(t *testing.T, e *executor.Executor, flow string, rs RunStats, bodies int64, want *settledWant) {
	t.Helper()
	if rs.Tasks != bodies {
		t.Fatalf("RunStats counts %d executions, the bodies %d", rs.Tasks, bodies)
	}
	// Only resolved executions are histogram records: an attempt that armed
	// a retry is busy time and a span, but its execution is still to come.
	want.records += bodies - rs.Retries
	want.spans += bodies + rs.Skipped
	want.busy += rs.Busy
	want.retried = want.retried || rs.Retries > 0

	lat := flowLatency(t, e, flow)
	fl := readFlight(t, e, flow)
	for _, s := range []*executor.LatencySnapshot{&lat.QueueWait, &lat.Exec, &lat.EndToEnd} {
		if int64(s.Count) != want.records {
			t.Fatalf("histograms hold %d/%d/%d records, want %d",
				lat.QueueWait.Count, lat.Exec.Count, lat.EndToEnd.Count, want.records)
		}
	}
	if fl.starts != fl.ends || int64(fl.starts) != want.spans {
		t.Fatalf("flight holds %d starts and %d ends for %d executions", fl.starts, fl.ends, want.spans)
	}
	if fl.bodySum != want.busy {
		t.Fatalf("flight spans sum to %v, RunStats busy to %v", fl.bodySum, want.busy)
	}
	if sum := time.Duration(lat.Exec.Sum); !want.retried && sum != want.busy {
		t.Fatalf("exec histogram sums to %v, RunStats busy to %v", sum, want.busy)
	}
}

// TestSettledBeforeDone runs the law over every way an execution can end —
// handing one task over, many, none; deferring to a subflow or a retry
// timer; skipped — on one, two and four workers, reading the records with
// no wait after Run or Get returns.
func TestSettledBeforeDone(t *testing.T) {
	var bodies atomic.Int64
	body := func() { bodies.Add(1) }
	shapes := []struct {
		name  string
		build func(tf *Taskflow)
		fails bool // the run ends in an error, having skipped the rest
	}{
		{"chain", func(tf *Taskflow) {
			prev := tf.Emplace1(body)
			for i := 1; i < 512; i++ {
				next := tf.Emplace1(body)
				prev.Precede(next)
				prev = next
			}
		}, false},
		{"fan", func(tf *Taskflow) { // 1 -> 512 -> 1
			src, sink := tf.Emplace1(body), tf.Emplace1(body)
			for i := 0; i < 512; i++ {
				src.Precede(tf.Emplace1(body).Precede(sink))
			}
		}, false},
		{"dag", func(tf *Taskflow) {
			rng := rand.New(rand.NewSource(7))
			ts := make([]Task, 400)
			for i := range ts {
				ts[i] = tf.Emplace1(body)
			}
			for i := range ts[:len(ts)-1] {
				for k := rng.Intn(4); k > 0; k-- {
					ts[i].Precede(ts[i+1+rng.Intn(len(ts)-1-i)])
				}
			}
		}, false},
		{"subflows", func(tf *Taskflow) {
			spawn := func(detach bool) func(*Subflow) {
				return func(sf *Subflow) {
					bodies.Add(1)
					a := sf.Emplace1(body)
					for i := 0; i < 8; i++ {
						a.Precede(sf.Emplace1(body))
					}
					if detach {
						sf.Detach()
					}
				}
			}
			first := tf.Emplace1(body)
			last := tf.Emplace1(body)
			for i := 0; i < 6; i++ {
				first.Precede(tf.EmplaceSubflow(spawn(i%2 == 1)).Precede(last))
			}
		}, false},
		{"retry", func(tf *Taskflow) {
			var attempts atomic.Int64
			first := tf.Emplace1(body)
			flaky := tf.EmplaceErr(func() error {
				bodies.Add(1)
				if attempts.Add(1)%3 != 0 {
					return errors.New("transient")
				}
				return nil
			}).Retry(2, 0)
			first.Precede(flaky.Precede(tf.Emplace1(body)))
			first.Precede(tf.Emplace1(body))
		}, false},
		{"failing", func(tf *Taskflow) {
			boom := errors.New("boom")
			src := tf.Emplace1(body)
			bad := tf.EmplaceErr(func() error { bodies.Add(1); return boom })
			src.Precede(bad)
			for i := 0; i < 64; i++ {
				bad.Precede(tf.Emplace1(body).Precede(tf.Emplace1(body)))
			}
		}, true},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/W=%d", sh.name, workers), func(t *testing.T) {
				e := everythingOn(workers)
				defer e.Shutdown()
				tf := NewShared(e).CollectRunStats(true)
				sh.build(tf)
				var want settledWant
				for run := 0; run < 3; run++ {
					bodies.Store(0)
					err := tf.Run()
					rs, _ := tf.LastRunStats()
					if (err != nil) != sh.fails {
						t.Fatalf("Run = %v, want failure: %v", err, sh.fails)
					}
					assertSettled(t, e, "", rs, bodies.Load(), &want)
				}
				// The same graph, dispatched: Get is the waiter.
				bodies.Store(0)
				fut := tf.Dispatch()
				_ = fut.Get()
				rs, ok := fut.Stats()
				if !ok {
					t.Fatal("no stats for the dispatched topology")
				}
				assertSettled(t, e, "", rs, bodies.Load(), &want)
			})
		}
	}
}

// TestSettledBeforeDoneCancelled cancels a dispatched fan-out while its
// source is inside its body: every other task is skipped, and Get returns to
// complete records all the same.
func TestSettledBeforeDoneCancelled(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := everythingOn(workers)
		var bodies atomic.Int64
		inside, release := make(chan struct{}), make(chan struct{})
		tf := NewShared(e).CollectRunStats(true)
		src := tf.Emplace1(func() { bodies.Add(1); close(inside); <-release })
		for i := 0; i < 100; i++ {
			src.Precede(tf.Emplace1(func() { bodies.Add(1) }))
		}
		fut := tf.Dispatch()
		<-inside
		fut.Cancel()
		close(release)
		if err := fut.Get(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("Get = %v, want ErrCancelled", err)
		}
		rs, _ := fut.Stats()
		if rs.Skipped != 100 {
			t.Fatalf("skipped %d executions, want 100", rs.Skipped)
		}
		assertSettled(t, e, "", rs, bodies.Load(), new(settledWant))
		e.Shutdown()
	}
}

// TestSettledBeforeDoneBesideLongChain is the case a flush by the finishing
// worker alone would miss: a taskflow whose tasks ran on workers that are by
// now deep in another taskflow's chain, and will not run out of work for a
// long time. Its records are complete when its Run returns regardless. (The
// chain is one run, which the flight window holds whole; should it end
// before the short runs do, the rest of them check the plain case again.)
func TestSettledBeforeDoneBesideLongChain(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := everythingOn(workers)
		long := NewShared(e).SetName("long")
		var sum uint64
		spin := func() {
			x := sum
			for i := 0; i < 30000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			sum = x
		}
		prev := long.Emplace1(spin)
		for i := 1; i < 2000; i++ {
			next := long.Emplace1(spin)
			prev.Precede(next)
			prev = next
		}
		longDone := make(chan error, 1)
		go func() { longDone <- long.Run() }()

		var bodies atomic.Int64
		body := func() { bodies.Add(1) }
		f := e.NewFlow("short", executor.FlowConfig{Class: executor.Interactive})
		short := NewShared(e).SetName("short").SetFlow(f).CollectRunStats(true)
		src, sink := short.Emplace1(body), short.Emplace1(body)
		for i := 0; i < 16; i++ {
			src.Precede(short.Emplace1(body).Precede(sink))
		}
		var want settledWant
		for run := 0; run < 20; run++ {
			bodies.Store(0)
			if err := short.Run(); err != nil {
				t.Fatal(err)
			}
			rs, _ := short.LastRunStats()
			assertSettled(t, e, "short", rs, bodies.Load(), &want)
		}
		if err := <-longDone; err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
	}
}

// TestSettledBeforeDoneWorkerMovesOn builds the missed case step by step, on
// two workers: X completes task T of the short taskflow — not its last, U is
// still inside its body on Y — with a task of another taskflow already on
// its deque (T's semaphore release put it there), so X goes straight on into
// that task's long body and never runs out of local work. Y then completes
// the short taskflow. What X recorded of T must be readable all the same: X
// settled before it took T off the count.
func TestSettledBeforeDoneWorkerMovesOn(t *testing.T) {
	e := everythingOn(2)
	defer e.Shutdown()
	sem := NewSemaphore(1)
	tInside, tGo := make(chan struct{}), make(chan struct{})
	longInside, longGo := make(chan struct{}), make(chan struct{})

	var bodies atomic.Int64
	f := e.NewFlow("short", executor.FlowConfig{Class: executor.Interactive})
	short := NewShared(e).SetName("short").SetFlow(f).CollectRunStats(true)
	short.Emplace1(func() { bodies.Add(1); close(tInside); <-tGo }).Acquire(sem).Release(sem)
	short.Emplace1(func() { bodies.Add(1); <-longInside })
	long := NewShared(e).SetName("long")
	long.Emplace1(func() { close(longInside); <-longGo }).Acquire(sem)

	shortDone := make(chan error, 1)
	go func() { shortDone <- short.Run() }()
	<-tInside // T holds the semaphore
	longFut := long.Dispatch()
	defer func() { // after the verdict, whichever it is: Shutdown waits for X
		close(longGo)
		if err := longFut.Get(); err != nil {
			t.Error(err)
		}
	}()
	close(tGo) // T lets go of the semaphore; the long task lands behind it
	if err := <-shortDone; err != nil {
		t.Fatal(err)
	}
	rs, _ := short.LastRunStats()
	assertSettled(t, e, "short", rs, bodies.Load(), new(settledWant))
}
