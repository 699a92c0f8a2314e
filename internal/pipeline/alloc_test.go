package pipeline

import (
	"testing"

	"gotaskflow/internal/executor"
)

// TestPipelineRunNZeroAlloc is the CI gate on the tentpole reuse claim:
// once warmed, re-running a pre-built pipeline — including a ForEach
// fan-out pipe and a satisfied Defer — allocates nothing.
func TestPipelineRunNZeroAlloc(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	const n, lines = 64, 4
	// One row per line: tokens on different lines run the parallel
	// ForEach pipe concurrently.
	var sink [lines][256]int64
	p := New(e, lines,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(pf *Pipeflow) {
			if tok := pf.Token(); tok > 0 {
				pf.Defer(tok - 1) // parks or not; both paths must be clean
			}
		}},
		ForEach(Parallel, func(*Pipeflow) int { return len(sink[0]) }, 32, Guided,
			func(pf *Pipeflow, begin, end int) {
				for i := begin; i < end; i++ {
					sink[pf.Line()][i] = pf.Token()
				}
			}),
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	p.RunN(3) // warm the executor's worker caches
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if p.Run() != n {
			t.Fatal("wrong token count")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Run allocates %.1f allocs/op, want 0", avg)
	}
}
