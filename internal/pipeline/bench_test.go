package pipeline

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// spin busy-waits for roughly d, standing in for a small unit of token
// work (1–10µs in the throughput benchmarks) without touching the heap
// or the scheduler.
func spin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}

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

// BenchmarkPipelineThroughput measures tokens/sec through mixed
// serial/parallel pipelines of 4, 6 and 8 stages at 1–16 lines, each
// stage spinning ~1µs per token. One benchmark iteration is one token;
// tokens stream through a single pre-built pipeline via repeated Run
// batches. tokens/sec is reported as a custom metric.
func BenchmarkPipelineThroughput(b *testing.B) {
	const tokenWork = time.Microsecond
	for _, stages := range []int{4, 6, 8} {
		for _, lines := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("stages=%d/lines=%d", stages, lines), func(b *testing.B) {
				e := executor.New(runtime.GOMAXPROCS(0))
				defer e.Shutdown()
				var quota int64
				pipes := make([]Pipe, stages)
				pipes[0] = Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
					if pf.Token() >= quota {
						pf.Stop()
					}
				}}
				for i := 1; i < stages; i++ {
					ty := Parallel
					if i == stages-1 || i%3 == 0 {
						ty = Serial // mixed shape: serial tail + every third stage
					}
					pipes[i] = Pipe{Type: ty, Fn: func(*Pipeflow) { spin(tokenWork) }}
				}
				p := New(e, lines, pipes...)
				quota = 512
				p.Run() // warm-up batch
				quota = int64(b.N)
				b.ResetTimer()
				start := time.Now()
				if got := p.Run(); got != int64(b.N) {
					b.Fatalf("processed %d tokens, want %d", got, b.N)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				if err := p.Err(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tokens/sec")
			})
		}
	}
}

// BenchmarkPipelineForEachThroughput measures a streaming shape with a
// data-parallel middle stage: head → ForEach over 4096 indexes (guided)
// → serial tail, the "one token fans out across the executor" path.
func BenchmarkPipelineForEachThroughput(b *testing.B) {
	for _, lines := range []int{2, 8} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			e := executor.New(runtime.GOMAXPROCS(0))
			defer e.Shutdown()
			sink := make([]int64, 4096)
			var quota int64
			p := New(e, lines,
				Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
					if pf.Token() >= quota {
						pf.Stop()
					}
				}},
				ForEach(Parallel, func(*Pipeflow) int { return len(sink) }, 256, Guided,
					func(pf *Pipeflow, begin, end int) {
						for i := begin; i < end; i++ {
							sink[i] += pf.Token()
						}
					}),
				Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
			)
			quota = 256
			p.Run()
			quota = int64(b.N)
			b.ResetTimer()
			start := time.Now()
			if got := p.Run(); got != int64(b.N) {
				b.Fatalf("processed %d tokens, want %d", got, b.N)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "tokens/sec")
		})
	}
}

// BenchmarkPipelineRunN measures the per-run reset overhead: tiny batches
// re-executed back to back, the serving-loop shape RunN exists for.
func BenchmarkPipelineRunN(b *testing.B) {
	e := executor.New(4)
	defer e.Shutdown()
	const batch = 64
	p := New(e, 4,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= batch {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(*Pipeflow) {}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	p.RunN(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Run() != batch {
			b.Fatal("wrong token count")
		}
	}
}
