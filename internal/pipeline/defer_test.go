package pipeline

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// TestDeferOrdersParallelPipe defers every even token to the preceding
// odd token on a Parallel pipe. Defer guarantees that a token it parked is
// invoked again only after its target completed; a target that completes
// before the park check makes Defer a no-op, so the first invocation
// promises nothing. Token 1 is held until some token has parked, so parks
// are certain.
func TestDeferOrdersParallelPipe(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	const n = 200
	var mu sync.Mutex
	done := make(map[int64]bool) // tokens that completed pipe 1
	reinvoked, early := 0, []int64(nil)
	var p *Pipeline
	p = New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			tok := pf.Token()
			if tok%2 == 0 && tok > 0 {
				mu.Lock()
				if pf.Deferrals() > 0 {
					reinvoked++
					if !done[tok-1] {
						early = append(early, tok)
					}
				}
				mu.Unlock()
				pf.Defer(tok - 1)
				return
			}
			if tok == 1 {
				// Token 2 parks on token 1 unless Defer never parks; the
				// deadline keeps that failure from hanging the run.
				for deadline := time.Now().Add(time.Second); p.Stats().Deferrals == 0 && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
			}
			mu.Lock()
			done[tok] = true
			mu.Unlock()
		}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	if got := p.Run(); got != n {
		t.Fatalf("Run() = %d tokens, want %d", got, n)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(early) > 0 {
		t.Fatalf("tokens %v were invoked again before their deferred targets completed", early)
	}
	if parks := p.Stats().Deferrals; reinvoked == 0 || int64(reinvoked) != parks {
		t.Fatalf("%d re-invocations for %d parks, want as many and more than 0", reinvoked, parks)
	}
}

// A deferring token's callable re-runs for the same token after the
// target completes; Deferrals() distinguishes the re-invocation. A Defer
// whose target already completed must not park at all.
func TestDeferReinvocationAndSatisfiedTarget(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	const n = 8
	var mu sync.Mutex
	invocations := make(map[int64]int)
	deferralsSeen := make(map[int64]int)
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		// Serial pipe: every earlier token is guaranteed complete, so the
		// Defer below is always satisfied immediately — zero parks, one
		// invocation per token.
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			mu.Lock()
			invocations[pf.Token()]++
			deferralsSeen[pf.Token()] = pf.Deferrals()
			mu.Unlock()
			if pf.Token() > 0 {
				pf.Defer(pf.Token() - 1)
			}
		}},
	)
	if got := p.Run(); got != n {
		t.Fatalf("Run() = %d, want %d", got, n)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Deferrals != 0 {
		t.Fatalf("Stats.Deferrals = %d, want 0 (serial-pipe Defer is always satisfied)", st.Deferrals)
	}
	mu.Lock()
	defer mu.Unlock()
	for tok := int64(0); tok < n; tok++ {
		if invocations[tok] != 1 {
			t.Fatalf("token %d invoked %d times, want 1", tok, invocations[tok])
		}
		if deferralsSeen[tok] != 0 {
			t.Fatalf("token %d saw Deferrals()=%d, want 0", tok, deferralsSeen[tok])
		}
	}
}

// TestDeferParksAndCounts forces real parks: token 1 on a Parallel pipe
// defers to token 0, which is held back until token 1 has certainly
// parked.
func TestDeferParksAndCounts(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	release := make(chan struct{})
	var deferralsAt1 int
	var mu sync.Mutex
	var p *Pipeline
	p = New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= 4 {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			switch pf.Token() {
			case 0:
				<-release // hold token 0 until token 1 has parked
			case 1:
				mu.Lock()
				deferralsAt1 = pf.Deferrals()
				mu.Unlock()
				if pf.Deferrals() == 0 {
					pf.Defer(0)
				}
			}
		}},
	)
	go func() {
		// Token 0 cannot complete pipe 1 until released, so token 1's
		// park is guaranteed to take (its target cell shows completed
		// = -1); wait until the park is visible, then let token 0 go.
		for p.Stats().Deferrals == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
	}()
	if got := p.Run(); got != 4 {
		t.Fatalf("Run() = %d, want 4", got)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if deferralsAt1 != 1 {
		t.Fatalf("token 1 final Deferrals() = %d, want 1 (one park)", deferralsAt1)
	}
	if st := p.Stats(); st.Deferrals != 1 {
		t.Fatalf("Stats.Deferrals = %d, want 1", st.Deferrals)
	}
}

// Invalid Defer targets are errors, not parks.
func TestDeferValidation(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	for name, tc := range map[string]struct {
		target func(tok int64) int64
		want   string
	}{
		"self":     {func(tok int64) int64 { return tok }, "non-earlier"},
		"future":   {func(tok int64) int64 { return tok + 1 }, "non-earlier"},
		"negative": {func(tok int64) int64 { return -1 }, "non-earlier"},
	} {
		p := New(e, 2,
			Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
				if pf.Token() >= 3 {
					pf.Stop()
				}
			}},
			Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
				if pf.Token() == 1 {
					pf.Defer(tc.target(pf.Token()))
				}
			}},
		)
		p.Run()
		err := p.Err()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Err() = %v, want %q", name, err, tc.want)
		}
	}
}

// Deferral state must reset across runs: a pipeline that parks tokens in
// one run behaves identically on the next.
func TestDeferResetAcrossRuns(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	const n, rounds = 60, 3
	p := New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			if tok := pf.Token(); tok >= 3 && pf.Deferrals() == 0 {
				pf.Defer(tok - 3)
			}
		}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	for r := 0; r < rounds; r++ {
		if got := p.Run(); got != n {
			t.Fatalf("round %d: Run() = %d, want %d", r, got, n)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

// Defer composes with Fail: a failing pipeline with parked tokens still
// drains and reports the error (parked charges are woken by completions
// that continue while in-flight tokens drain).
func TestDeferWithFailure(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	boom := errors.New("boom")
	p := New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= 100 {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			tok := pf.Token()
			if tok == 7 {
				pf.Fail(boom)
				return
			}
			if tok >= 2 && pf.Deferrals() == 0 {
				pf.Defer(tok - 2)
			}
		}},
	)
	done := make(chan int64, 1)
	go func() { done <- p.Run() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung with parked tokens after a failure")
	}
	if !errors.Is(p.Err(), boom) {
		t.Fatalf("Err() = %v, want boom", p.Err())
	}
}
