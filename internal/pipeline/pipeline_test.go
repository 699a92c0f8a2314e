package pipeline

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gotaskflow/internal/executor"
)

// recorder tracks, per pipe, the order tokens were processed in.
type recorder struct {
	mu    sync.Mutex
	order [][]int64
}

func newRecorder(pipes int) *recorder {
	return &recorder{order: make([][]int64, pipes)}
}

func (r *recorder) hit(pipe int, token int64) {
	r.mu.Lock()
	r.order[pipe] = append(r.order[pipe], token)
	r.mu.Unlock()
}

// verify checks each pipe saw exactly tokens 0..n-1, and serial pipes saw
// them in ascending order.
func (r *recorder) verify(t *testing.T, n int64, types []Type) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, seq := range r.order {
		if int64(len(seq)) != n {
			t.Fatalf("pipe %d processed %d tokens, want %d (%v)", p, len(seq), n, seq)
		}
		seen := map[int64]bool{}
		for i, tok := range seq {
			if tok < 0 || tok >= n {
				t.Fatalf("pipe %d: token %d out of range", p, tok)
			}
			if seen[tok] {
				t.Fatalf("pipe %d: token %d processed twice", p, tok)
			}
			seen[tok] = true
			if types[p] == Serial && int64(i) != tok {
				t.Fatalf("serial pipe %d: position %d got token %d (order broken: %v)", p, i, tok, seq)
			}
		}
	}
}

func runPipeline(t *testing.T, workers, lines int, n int64, types []Type) *recorder {
	t.Helper()
	e := executor.New(workers)
	defer e.Shutdown()
	rec := newRecorder(len(types))
	pipes := make([]Pipe, len(types))
	for i, ty := range types {
		i, ty := i, ty
		pipes[i] = Pipe{Type: ty, Fn: func(pf *Pipeflow) {
			if i == 0 {
				if pf.Token() >= n {
					pf.Stop()
					return
				}
			}
			rec.hit(i, pf.Token())
		}}
	}
	p := New(e, lines, pipes...)
	if p.lines != lines || len(p.pipes) != len(types) {
		t.Fatal("pipeline metadata wrong")
	}
	got := p.Run()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("Run() = %d tokens, want %d", got, n)
	}
	rec.verify(t, n, types)
	return rec
}

func TestSingleLineAllSerial(t *testing.T) {
	runPipeline(t, 2, 1, 50, []Type{Serial, Serial, Serial})
}

func TestMultiLineAllSerial(t *testing.T) {
	runPipeline(t, 2, 4, 100, []Type{Serial, Serial, Serial})
}

func TestParallelMiddlePipe(t *testing.T) {
	runPipeline(t, 4, 4, 200, []Type{Serial, Parallel, Serial})
}

func TestAllParallelAfterHead(t *testing.T) {
	runPipeline(t, 4, 8, 300, []Type{Serial, Parallel, Parallel, Parallel})
}

func TestSinglePipePipeline(t *testing.T) {
	runPipeline(t, 2, 3, 40, []Type{Serial})
}

func TestZeroTokens(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) { pf.Stop() }},
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) { t.Error("second pipe ran with zero tokens") }},
	)
	if got := p.Run(); got != 0 {
		t.Fatalf("Run() = %d, want 0", got)
	}
}

func TestPipelineOverlapsLines(t *testing.T) {
	// With a Parallel middle pipe and multiple lines, at least two tokens
	// must be inside the middle pipe simultaneously at some point.
	e := executor.New(2)
	defer e.Shutdown()
	var inFlight, peak atomic.Int64
	const n = 64
	p := New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			c := inFlight.Add(1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			for i := 0; i < 20000; i++ {
				_ = i * i
			}
			inFlight.Add(-1)
		}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	if got := p.Run(); got != n {
		t.Fatalf("Run() = %d", got)
	}
	if peak.Load() < 2 {
		t.Logf("note: peak parallel-pipe occupancy %d (timing dependent on 2 cores)", peak.Load())
	}
}

func TestStopTokenNotProcessed(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	var headCalls, bodyCalls atomic.Int64
	p := New(e, 3,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			headCalls.Add(1)
			if pf.Token() >= 10 {
				pf.Stop()
			}
		}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) { bodyCalls.Add(1) }},
	)
	if got := p.Run(); got != 10 {
		t.Fatalf("Run() = %d", got)
	}
	if bodyCalls.Load() != 10 {
		t.Fatalf("body saw %d tokens, want 10 (stop token must not propagate)", bodyCalls.Load())
	}
	if headCalls.Load() != 11 {
		t.Fatalf("head invoked %d times, want 11 (10 tokens + stop)", headCalls.Load())
	}
}

func TestPipeflowMetadata(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	var bad atomic.Bool
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= 8 {
				pf.Stop()
				return
			}
			if pf.Pipe() != 0 || pf.Line() < 0 || pf.Line() >= 2 {
				bad.Store(true)
			}
		}},
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Pipe() != 1 {
				bad.Store(true)
			}
		}},
	)
	p.Run()
	if bad.Load() {
		t.Fatal("pipeflow metadata wrong")
	}
}

// TestTracedCellsCarryLine: under executor tracing every cell span carries
// the pipeline's name as Flow, its pipe as Name and its line as Idx, and
// every line shows up — what a per-line view of a capture groups by.
func TestTracedCellsCarryLine(t *testing.T) {
	e := executor.New(2, executor.WithTracing(0))
	defer e.Shutdown()
	const n, lines = 32, 4
	p := New(e, lines,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(*Pipeflow) {}},
	).Named("stream")
	if !e.StartTrace() {
		t.Fatal("StartTrace refused")
	}
	if got := p.Run(); got != n {
		t.Fatalf("Run() = %d, want %d", got, n)
	}
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace: no capture")
	}
	spans := make([]int, lines)
	for _, ev := range tr.Events {
		if ev.Kind != executor.EvTaskStart {
			continue
		}
		m := ev.Meta
		if m.Flow != "stream" || (m.Name != "p0" && m.Name != "p1") || m.Idx < 0 || int(m.Idx) >= lines {
			t.Fatalf("cell span %+v does not carry the pipeline, a pipe and a line", m)
		}
		spans[m.Idx]++
	}
	for l, c := range spans {
		if c == 0 {
			t.Fatalf("line %d has no traced cell span: spans per line %v", l, spans)
		}
	}
}

func TestPipePanicStopsAndReports(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= 100 {
				pf.Stop()
			}
		}},
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() == 3 {
				panic("stage blew up")
			}
		}},
	)
	p.Run() // must terminate
	if p.Err() == nil {
		t.Fatal("pipe panic not reported")
	}
}

func TestConstructorValidation(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()
	for name, fn := range map[string]func(){
		"noPipes":      func() { New(e, 1) },
		"parallelHead": func() { New(e, 1, Pipe{Type: Parallel, Fn: func(*Pipeflow) {}}) },
		"forEachHead": func() {
			New(e, 1, ForEach(Serial, func(*Pipeflow) int { return 1 }, 1, Dynamic, func(*Pipeflow, int, int) {}))
		},
		"forEachNilBody": func() { ForEach(Serial, func(*Pipeflow) int { return 1 }, 1, Dynamic, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	p := New(e, 0, Pipe{Type: Serial, Fn: func(pf *Pipeflow) { pf.Stop() }})
	if p.lines != 1 {
		t.Fatal("lines not clamped to 1")
	}
	// Runs are reusable in v2: back-to-back Run calls must both work.
	p.Run()
	p.Run()
}

// TestPipelineRunReuse is the core v2 semantics change: one pre-built
// pipeline re-executes with full state reset — token numbering restarts,
// every pipe sees every token again, serial order holds each round.
func TestPipelineRunReuse(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	const n, rounds = 40, 5
	var perRun atomic.Int64
	p := New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
				return
			}
			perRun.Add(1)
		}},
		Pipe{Type: Parallel, Fn: func(*Pipeflow) {}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	for r := 0; r < rounds; r++ {
		perRun.Store(0)
		if got := p.Run(); got != n {
			t.Fatalf("round %d: Run() = %d tokens, want %d", r, got, n)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if perRun.Load() != n {
			t.Fatalf("round %d: head processed %d tokens, want %d", r, perRun.Load(), n)
		}
	}
	st := p.Stats()
	if st.Runs != rounds || st.Tokens != n*rounds {
		t.Fatalf("Stats = %+v, want %d runs and %d tokens", st, rounds, n*rounds)
	}
	var sum int64
	for _, lt := range st.PerLine {
		sum += lt
	}
	if sum != n*rounds {
		t.Fatalf("per-line tokens sum to %d, want %d (%v)", sum, n*rounds, st.PerLine)
	}
}

// TestPipelineRunN checks the batch-run entry point and its early stop
// on error.
func TestPipelineRunN(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	const n = 25
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	if got := p.RunN(4); got != 4*n {
		t.Fatalf("RunN(4) = %d tokens, want %d", got, 4*n)
	}

	// A failing pipeline stops RunN early.
	var runs atomic.Int64
	boom := errors.New("boom")
	q := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() == 0 {
				runs.Add(1)
			}
			if pf.Token() >= 3 {
				pf.Stop()
				return
			}
			if runs.Load() == 2 && pf.Token() == 1 {
				pf.Fail(boom)
			}
		}},
	)
	q.RunN(10)
	if !errors.Is(q.Err(), boom) {
		t.Fatalf("Err() = %v, want boom", q.Err())
	}
	if runs.Load() != 2 {
		t.Fatalf("RunN kept going for %d runs after a failure, want stop after run 2", runs.Load())
	}
}

// Property: any mix of serial/parallel pipes over any line count
// processes each token exactly once per pipe and keeps serial order.
func TestQuickPipelineCorrectness(t *testing.T) {
	f := func(lineSel, pipeSel, tokSel uint8, mask uint16) bool {
		lines := int(lineSel%6) + 1
		numPipes := int(pipeSel%4) + 1
		n := int64(tokSel % 64)
		types := make([]Type, numPipes)
		types[0] = Serial
		for i := 1; i < numPipes; i++ {
			if mask&(1<<i) != 0 {
				types[i] = Parallel
			}
		}
		e := executor.New(2)
		defer e.Shutdown()
		rec := newRecorder(numPipes)
		pipes := make([]Pipe, numPipes)
		for i := range pipes {
			i := i
			pipes[i] = Pipe{Type: types[i], Fn: func(pf *Pipeflow) {
				if i == 0 && pf.Token() >= n {
					pf.Stop()
					return
				}
				rec.hit(i, pf.Token())
			}}
		}
		p := New(e, lines, pipes...)
		if p.Run() != n {
			return false
		}
		// Inline verify (no *testing.T in quick property).
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for pi, seq := range rec.order {
			if int64(len(seq)) != n {
				return false
			}
			seen := map[int64]bool{}
			for idx, tok := range seq {
				if seen[tok] {
					return false
				}
				seen[tok] = true
				if types[pi] == Serial && int64(idx) != tok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
