package pipeline

import (
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// Token end-to-end latency flows into the executor's histograms through
// the LatencySink seam: one observation per completed token, measured
// from generation at the head to completion of the last pipe.
func TestPipelineTokenLatencyRecorded(t *testing.T) {
	e := executor.New(2, executor.WithLatencyHistograms())
	defer e.Shutdown()
	const n = 40
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Parallel, Fn: func(*Pipeflow) { time.Sleep(50 * time.Microsecond) }},
	)
	if got := p.Run(); got != n {
		t.Fatalf("Run() = %d, want %d", got, n)
	}
	sums, ok := e.LatencyStats()
	if !ok || len(sums) == 0 {
		t.Fatal("no latency stats")
	}
	unbound := sums[0]
	if !unbound.Unbound {
		t.Fatal("first summary should be the unbound sink")
	}
	if unbound.Exec.Count != n {
		t.Fatalf("recorded %d token latencies, want %d", unbound.Exec.Count, n)
	}
	// Each token spends ≥50µs in the middle pipe; the mean e2e must
	// reflect that.
	if mean := unbound.Exec.Mean(); mean < 50*time.Microsecond {
		t.Fatalf("mean token latency %v, want ≥ 50µs", mean)
	}
}

// A pipeline composed into a flow-bound taskflow records its token
// latencies into that flow's histogram set.
func TestPipelineBindFlow(t *testing.T) {
	e := executor.New(2, executor.WithLatencyHistograms())
	defer e.Shutdown()
	f := e.NewFlow("stream", executor.FlowConfig{})
	const n = 16
	p := New(e, 2,
		Pipe{Type: Serial, Fn: func(pf *Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		Pipe{Type: Serial, Fn: func(*Pipeflow) {}},
	)
	tf := core.NewShared(e).SetFlow(f)
	tf.EmplaceModule(p)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Tokens; got != n {
		t.Fatalf("Run processed %d tokens, want %d", got, n)
	}
	sums, _ := e.LatencyStats()
	var found bool
	for _, s := range sums {
		if s.Flow == "stream" {
			found = true
			if s.Exec.Count != n {
				t.Fatalf("flow recorded %d tokens, want %d", s.Exec.Count, n)
			}
		}
	}
	if !found {
		t.Fatal("flow 'stream' missing from latency stats")
	}
}
