package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sim"
)

// everythingOn is the README's production-monitoring executor with a flight
// window wide enough that the runs below drop nothing.
func everythingOn(workers int) *executor.Executor {
	return executor.New(workers, executor.WithMetrics(), executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(1<<15))
}

// flightSpans is what a flight snapshot says about the tasks of one flow:
// how many started and ended.
type flightSpans struct {
	starts, ends int
}

// readFlight pairs the start and end events of flow's tasks worker by
// worker, in the order the worker wrote them.
func readFlight(t *testing.T, e *executor.Executor, flow string) flightSpans {
	t.Helper()
	tr, ok := e.FlightSnapshot()
	if !ok || tr.Dropped != 0 {
		t.Fatalf("flight snapshot ok=%v dropped=%d, want the whole run", ok, tr.Dropped)
	}
	var fs flightSpans
	open := map[int32]uint64{}
	for _, ev := range tr.Events {
		if ev.Meta.Flow != flow || ev.Worker == executor.ExternalWorker {
			continue
		}
		switch ev.Kind {
		case executor.EvTaskStart:
			if id, ok := open[ev.Worker]; ok {
				t.Fatalf("worker %d starts task %d inside the span of task %d", ev.Worker, ev.Meta.ID, id)
			}
			open[ev.Worker] = ev.Meta.ID
			fs.starts++
		case executor.EvTaskEnd:
			if id, ok := open[ev.Worker]; !ok || id != ev.Meta.ID {
				t.Fatalf("worker %d ends task %d without its start", ev.Worker, ev.Meta.ID)
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

// TestSettledBeforeDonePipeline: a pipeline's Run returns to one latency
// record per token and an end for every cell's start.
func TestSettledBeforeDonePipeline(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := everythingOn(workers)
		const tokens = 300
		p := New(e, 4,
			Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
				if pf.Token() == tokens {
					pf.Stop()
				}
			}},
			Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
				if pf.Token()%7 == 3 && pf.Deferrals() == 0 {
					pf.Defer(pf.Token() - 1)
				}
			}},
			ForEach(Parallel, func(*Pipeflow) int { return 8 }, 1, Dynamic,
				func(*Pipeflow, int, int) {}),
			Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
		).Named("pipe")
		for run := 1; run <= 3; run++ {
			if got := p.Run(); got != tokens {
				t.Fatalf("pipeline processed %d tokens, want %d", got, tokens)
			}
			lat := flowLatency(t, e, "")
			fl := readFlight(t, e, "pipe")
			if lat.EndToEnd.Count != uint64(run*tokens) {
				t.Fatalf("W=%d run %d: %d token latency records, want %d", workers, run, lat.EndToEnd.Count, run*tokens)
			}
			if fl.starts != fl.ends || fl.starts < run*tokens*4 {
				t.Fatalf("W=%d run %d: flight holds %d cell starts and %d ends", workers, run, fl.starts, fl.ends)
			}
		}
		e.Shutdown()
	}
}

// composition is parse → pipeline → reduce in one taskflow: parse writes
// the records the pipeline's head streams, the pipeline squares them and
// stores them in token order, and reduce sums what it finds.
type composition struct {
	tf      *core.Taskflow
	p       *Pipeline
	records []int64
	out     []int64
	bodies  atomic.Int64 // pipe invocations after the head
	reduced bool
	early   string // what reduce found unfinished
	sum     int64
}

// compose builds the composition over s for n records; parseErr fails
// parse, failAt ≥ 0 makes the middle pipe Fail on that token.
func compose(s executor.Scheduler, n int, parseErr error, failAt int64) *composition {
	c := &composition{out: make([]int64, n)}
	const lines = 3
	var slot [lines]int64
	c.p = New(s, lines,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= int64(len(c.records)) {
				pf.Stop()
				return
			}
			slot[pf.Line()] = c.records[pf.Token()]
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			c.bodies.Add(1)
			if pf.Token() == failAt {
				pf.Fail(errors.New("bad record"))
			}
			slot[pf.Line()] *= slot[pf.Line()]
		}},
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			c.bodies.Add(1)
			c.out[pf.Token()] = slot[pf.Line()]
		}},
	)
	c.tf = core.NewShared(s)
	parse := c.tf.EmplaceErr(func() error {
		if parseErr != nil {
			return parseErr
		}
		c.records = c.records[:0]
		for i := 0; i < n; i++ {
			c.records = append(c.records, int64(i+1))
		}
		return nil
	})
	reduce := c.tf.Emplace1(func() {
		c.reduced = true
		if c.p.j.Busy() {
			c.early = "the pipeline's join still counts executions"
		}
		for tok, v := range c.out {
			if v != int64(tok+1)*int64(tok+1) {
				c.early = fmt.Sprintf("token %d not retired (out %d)", tok, v)
				break
			}
			c.sum += v
		}
	})
	parse.Precede(c.tf.EmplaceModule(c.p).Precede(reduce))
	return c
}

// TestPipelineComposedBetweenTasks runs a pipeline as a module task between
// two tasks, on the real pool and on 100 simulated schedules: the successor
// starts only after the last token retired and sees every token; a failing
// predecessor runs no pipe; a pipe's Fail skips the successor and is the
// run's error; a deadline mid-stream stops generation.
func TestPipelineComposedBetweenTasks(t *testing.T) {
	const n = 40
	want := int64(0)
	for i := int64(1); i <= n; i++ {
		want += i * i
	}
	badParse := errors.New("malformed input")
	check := func(t *testing.T, s executor.Scheduler, where string) {
		t.Helper()
		c := compose(s, n, nil, -1)
		for run := 0; run < 2; run++ {
			c.sum, c.reduced, c.early = 0, false, ""
			clear(c.out)
			if err := c.tf.Run(); err != nil {
				t.Fatalf("%s run %d: %v", where, run, err)
			}
			if !c.reduced || c.early != "" || c.sum != want {
				t.Fatalf("%s run %d: reduce ran=%v early=%q sum=%d, want sum %d after every token",
					where, run, c.reduced, c.early, c.sum, want)
			}
		}

		c = compose(s, n, badParse, -1)
		if err := c.tf.Run(); !errors.Is(err, badParse) {
			t.Fatalf("%s: failing parse: Run = %v, want the parse error", where, err)
		}
		if c.bodies.Load() != 0 || c.reduced {
			t.Fatalf("%s: failing parse ran %d pipe bodies, reduce ran=%v", where, c.bodies.Load(), c.reduced)
		}

		c = compose(s, n, nil, 7)
		err := c.tf.Run()
		if err == nil || err.Error() != "pipeline: pipe 1 failed on token 7: bad record" {
			t.Fatalf("%s: failing pipe: Run = %v, want the pipe's error", where, err)
		}
		if c.reduced {
			t.Fatalf("%s: reduce ran after a pipe failed", where)
		}
	}
	for _, w := range []int{1, 2, 4} {
		e := executor.New(w)
		check(t, e, fmt.Sprintf("W=%d", w))
		e.Shutdown()
	}
	for seed := int64(0); seed < 100; seed++ {
		s := sim.New(1+int(seed%4), sim.WithSeed(seed))
		where := fmt.Sprintf("sim seed %d", seed)
		check(t, s, where)
		if err := s.Failure(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}

	// A deadline in the middle of an endless stream.
	e := executor.New(2)
	defer e.Shutdown()
	var generated atomic.Int64
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(*Pipeflow) { generated.Add(1); time.Sleep(time.Millisecond) }},
		Pipe{Type: Parallel, Fn: func(*Pipeflow) {}},
	)
	tf := core.NewShared(e)
	var reduced atomic.Bool
	tf.Emplace1(func() {}).Precede(tf.EmplaceModule(p).Precede(tf.Emplace1(func() { reduced.Store(true) })))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// The stream is endless: RunContext returns only if the deadline
	// stopped generation.
	if err := tf.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want DeadlineExceeded", err)
	}
	if g := generated.Load(); g == 0 || reduced.Load() {
		t.Fatalf("deadline: %d tokens generated, reduce ran=%v; want some, and no reduce", g, reduced.Load())
	}
}

// TestPipelineConcurrentStartFails starts one pipeline from two module tasks
// at once: the first token of the run that won waits until the other task
// has started, which must fail with ErrRunning — cancelling the topology —
// and leave the cell matrix intact for the next run.
func TestPipelineConcurrentStartFails(t *testing.T) {
	for _, w := range []int{2, 4} {
		e := executor.New(w)
		const n = 30
		p := New(e, 2,
			Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
				for deadline := time.Now().Add(5 * time.Second); pf.Token() == 0 && pf.p.Stats().Runs == 1 && !pf.p.j.Cancelled(); {
					if time.Now().After(deadline) {
						t.Error("the second start never failed")
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				if pf.Token() >= n {
					pf.Stop()
				}
			}},
			Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
		)
		tf := core.NewShared(e)
		tf.EmplaceModule(p)
		tf.EmplaceModule(p)
		if err := tf.Run(); !errors.Is(err, ErrRunning) {
			t.Fatalf("W=%d: Run = %v, want ErrRunning", w, err)
		}
		if runs := p.Stats().Runs; runs != 1 {
			t.Fatalf("W=%d: %d runs started, want 1", w, runs)
		}
		if got := p.Run(); got != n || p.Err() != nil {
			t.Fatalf("W=%d: the next Run = %d tokens, %v; want %d, nil", w, got, p.Err(), n)
		}
		e.Shutdown()
	}
}

// TestForEachFailStopsClaiming: a ForEach body that fails on every element
// stops its pipe claiming, so a failing run does not sweep the whole range,
// and the errors are bounded by the bodies in flight.
func TestForEachFailStopsClaiming(t *testing.T) {
	const lines = 2
	for _, w := range []int{1, 2, 4} {
		e := executor.New(w)
		var bodies atomic.Int64
		p := New(e, lines,
			Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
				if pf.Token() >= lines {
					pf.Stop()
				}
			}},
			ForEach(Parallel, func(*Pipeflow) int { return 1 << 20 }, 1, Dynamic,
				func(pf *Pipeflow, begin, _ int) {
					bodies.Add(1)
					pf.Fail(fmt.Errorf("element %d", begin))
				}),
		)
		p.Run()
		e.Shutdown()
		errs := 1
		if j, ok := p.Err().(interface{ Unwrap() []error }); ok {
			errs = len(j.Unwrap())
		}
		if b := bodies.Load(); b >= 1024 || p.Err() == nil || errs > lines+w {
			t.Fatalf("W=%d: %d bodies ran, %d errors joined (%v); want < 1024 bodies, ≤ %d errors",
				w, b, errs, p.Err() != nil, lines+w)
		}
	}
}
