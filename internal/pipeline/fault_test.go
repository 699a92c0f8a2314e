package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// runContext runs p as the one task of a fresh taskflow on e bound to ctx,
// and returns the tokens the run processed with its error: a pipeline's
// deadline and cancellation are those of the taskflow it runs in.
func runContext(ctx context.Context, e executor.Scheduler, p *Pipeline) (int64, error) {
	tf := core.NewShared(e)
	tf.EmplaceModule(p)
	before := p.Stats().Tokens
	err := tf.RunContext(ctx)
	return p.Stats().Tokens - before, err
}

func TestPipeflowFailStopsGeneration(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	boom := errors.New("stage two broke")
	var generated atomic.Int64
	p := New(e, 3,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if generated.Add(1) > 1000 {
				pf.Stop() // safety net; Fail should stop us first
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			if pf.Token() == 5 {
				pf.Fail(boom)
			}
		}},
	)
	p.Run()
	err := p.Err()
	if !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the Fail error", err)
	}
	if !strings.Contains(err.Error(), "pipe 1") || !strings.Contains(err.Error(), "token 5") {
		t.Fatalf("Err() = %v, want pipe and token identified", err)
	}
	if generated.Load() > 1000 {
		t.Fatal("Fail did not stop token generation")
	}
}

func TestPipelineErrJoinsMultipleFailures(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	e1, e2 := errors.New("one"), errors.New("two")
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			switch pf.Token() {
			case 0:
				pf.Fail(e1)
				pf.Fail(e2)
			default:
				pf.Stop()
			}
		}},
	)
	p.Run()
	err := p.Err()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("Err() = %v, want both failures joined", err)
	}
}

func TestPipelineRunContextCancel(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			// Keep the head busy until cancellation lands: a stopped
			// pipeline quiesces on the next head activation.
			time.Sleep(time.Millisecond)
		}},
	)
	go func() { <-started; cancel() }()
	n, err := runContext(ctx, e, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if n < 1 {
		t.Fatalf("processed %d tokens, want at least the first", n)
	}
}

func TestPipelineRunContextAlreadyCancelled(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	var ran atomic.Int64
	p := New(e, 2, Pipe{Type: Serial, Fn: func(pf *Pipeflow) { ran.Add(1); pf.Stop() }})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := runContext(ctx, e, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want Canceled", err)
	}
	if n != 0 || ran.Load() != 0 {
		t.Fatalf("pipeline ran (%d tokens, %d invocations) despite a dead ctx", n, ran.Load())
	}
}

func TestPipelineRunContextDeadline(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) { time.Sleep(time.Millisecond) }},
	)
	_, err := runContext(ctx, e, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v, want DeadlineExceeded", err)
	}
}

func TestPipelineRunOnDeadExecutor(t *testing.T) {
	e := executor.New(2)
	e.Shutdown()
	p := New(e, 2, Pipe{Type: Serial, Fn: func(pf *Pipeflow) { pf.Stop() }})
	done := make(chan int64, 1)
	go func() { done <- p.Run() }()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("processed %d tokens on a dead executor", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung on a shut-down executor")
	}
	if err := p.Err(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("Err() = %v, want ErrShutdown", err)
	}
}
