package executor

import (
	"strings"
	"testing"
	"time"
)

// continueChain returns n links; link i runs body(i) and then takes link
// i+1 as its continuation, running it in its own frame — the loop node.Run
// makes of it in internal/core.
func continueChain(n int, body func(i int)) []*Runnable {
	links := make([]*Runnable, n)
	for i := range links {
		i := i
		links[i] = NewTask(func(ctx Context) {
			for {
				body(i)
				if i++; i == n {
					return
				}
				ctx.Continue(links[i])
			}
		})
	}
	return links
}

// TestContinueRunsInOrderAsCacheHits: a chain handed on by Continue runs
// every link once, in order; every link but the head counts as a cache hit
// and the counters reconcile.
func TestContinueRunsInOrderAsCacheHits(t *testing.T) {
	const n = 1000
	e := New(2, WithMetrics())
	defer e.Shutdown()
	var order []int
	done := make(chan struct{})
	links := continueChain(n, func(i int) {
		order = append(order, i)
		if i == n-1 {
			close(done)
		}
	})
	if err := e.Submit(links[0]); err != nil {
		t.Fatal(err)
	}
	<-done
	quiesce(t, e)
	if len(order) != n {
		t.Fatalf("%d links ran, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; a continued chain runs in order", i, v)
		}
	}
	snap, _ := e.MetricsSnapshot()
	if tot := snap.Total(); tot.Executed != n || tot.CacheHits != n-1 {
		t.Fatalf("executed %d, cache hits %d; want %d and %d", tot.Executed, tot.CacheHits, n, n-1)
	}
}

// quiesce waits until every worker has gone back to look for work, so the
// counters are at rest for Reconcile.
func quiesce(t *testing.T, e *Executor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, _ := e.MetricsSnapshot()
		if err := snap.Reconcile(); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestContinueGrantsAfterSubmitCached: a task that pushed x with
// SubmitCached still continues y, which it runs in its own frame before it
// returns; x runs afterwards, popped off the worker's deque. Each runs
// once, and the counters reconcile.
func TestContinueGrantsAfterSubmitCached(t *testing.T) {
	e := New(1, WithMetrics())
	defer e.Shutdown()
	var order []string
	done := make(chan struct{})
	x := NewTask(func(Context) {
		order = append(order, "x")
		close(done)
	})
	y := NewTask(func(Context) { order = append(order, "y") })
	err := e.Submit(NewTask(func(ctx Context) {
		ctx.SubmitCached(x)
		ctx.Continue(y)
		(*y).Run(ctx)
		order = append(order, "returned")
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	quiesce(t, e)
	if got := strings.Join(order, " "); got != "y returned x" {
		t.Fatalf("ran %q, want y in the caller's frame, then x", got)
	}
	snap, _ := e.MetricsSnapshot()
	if tot := snap.Total(); tot.Executed != 3 || tot.CacheHits != 1 || tot.Pops != 1 {
		t.Fatalf("executed %d, cache hits %d, pops %d; want 3, 1 and 1", tot.Executed, tot.CacheHits, tot.Pops)
	}
}

// TestContinueAdvancesExecutedPerLink: a continuation counts as executed
// when it begins, not when the frame it runs in returns, so a chain of
// slow links beside queued work is progress to the stall watchdog.
func TestContinueAdvancesExecutedPerLink(t *testing.T) {
	continueAdvancesExecuted(t, WithMetrics())
}

// TestContinueAdvancesExecutedPerLinkRecorded is the same law on a worker
// that records its continuations and batches their cache hits: a batch
// goes out at the first continuation a millisecond after the last one did,
// so links slower than that still advance Executed one by one.
func TestContinueAdvancesExecutedPerLinkRecorded(t *testing.T) {
	continueAdvancesExecuted(t, WithMetrics(), WithFlightRecorder(0))
}

// continueAdvancesExecuted runs 20 links of 5 ms on a one-worker pool built
// with opts, a task queued behind them, under a watchdog that calls 60 ms
// without progress a stall: it must stay silent.
func continueAdvancesExecuted(t *testing.T, opts ...Option) {
	const links, link = 20, 5 * time.Millisecond
	e := New(1, opts...)
	defer e.Shutdown()
	wd, err := e.StartWatchdog(WatchdogConfig{
		Interval:   link / 2,
		StallAfter: 12 * link, // well under the chain's 20 links
	})
	if err != nil {
		t.Fatal(err)
	}
	started, done := make(chan struct{}), make(chan struct{})
	chain := continueChain(links, func(i int) {
		if i == 0 {
			close(started)
		}
		time.Sleep(link)
	})
	if err := e.Submit(chain[0]); err != nil {
		t.Fatal(err)
	}
	<-started
	// Queued behind the chain on the only worker for its whole length.
	if err := e.Submit(NewTask(func(Context) { close(done) })); err != nil {
		t.Fatal(err)
	}
	<-done
	wd.Stop()
	if n := wd.Firings(); n != 0 {
		t.Fatalf("watchdog fired %d times on a chain that ran a link every %v: %+v", n, link, wd.LastReport())
	}
	snap, _ := e.MetricsSnapshot()
	if got := snap.Total().Executed; got != links+1 {
		t.Fatalf("executed %d, want %d", got, links+1)
	}
}

// TestSweepStartCoversEveryWorker: the steal sweep's first victim, the
// worker after a drawn start (self skipped), is every other worker in
// turn, near uniformly, and two workers of a pool draw different
// sequences. The pool's seeds come from a fixed table, each worker's state
// derived from it as New derives it, so a failure replays.
func TestSweepStartCoversEveryWorker(t *testing.T) {
	const n, draws, seqLen = 5, 5000, 8
	const lo, hi = draws / (n - 1) / 2, 2 * draws / (n - 1)
	e := New(n)
	defer e.Shutdown()
	e.Shutdown() // the workers exit: their states are the test's alone
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, 1<<63 - 1} {
		seqs := map[[seqLen]int]bool{}
		for _, w := range e.workers {
			w.rng = seed + uint64(w.id)*7919
			var hits [n]int
			var seq [seqLen]int
			for d := 0; d < draws; d++ {
				v := w.sweepStart(n)
				if v < 0 || v >= n {
					t.Fatalf("seed %#x: worker %d drew start %d outside [0, %d)", seed, w.id, v, n)
				}
				if v == w.id {
					v = (v + 1) % n
				}
				hits[v]++
				if d < len(seq) {
					seq[d] = v
				}
			}
			for v, h := range hits {
				switch {
				case v == w.id && h != 0:
					t.Fatalf("seed %#x: worker %d swept itself first %d times, want 0", seed, w.id, h)
				case v != w.id && (h < lo || h > hi):
					t.Fatalf("seed %#x: worker %d: first victims %v, worker %d outside the uniformity bound [%d, %d]", seed, w.id, hits, v, lo, hi)
				}
			}
			seqs[seq] = true
		}
		if len(seqs) != n {
			t.Fatalf("seed %#x: %d workers drew only %d distinct sweep sequences of %d draws, want %d", seed, n, len(seqs), seqLen, n)
		}
	}
}

// TestQuietTruthTable: a pool is quiet exactly when it was built with none
// of the booking options, and every worker copies the executor's answer.
func TestQuietTruthTable(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want bool
	}{
		{"plain", nil, true},
		{"metrics", []Option{WithMetrics()}, false},
		{"tracing", []Option{WithTracing(64)}, false},
		{"flight", []Option{WithFlightRecorder(64)}, false},
		{"histograms", []Option{WithLatencyHistograms()}, false},
		{"all", []Option{WithMetrics(), WithTracing(64), WithFlightRecorder(64), WithLatencyHistograms()}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(2, c.opts...)
			defer e.Shutdown()
			if e.Quiet() != c.want {
				t.Fatalf("Quiet() = %v, want %v", e.Quiet(), c.want)
			}
			for _, w := range e.workers {
				if w.quiet != c.want {
					t.Fatalf("worker %d quiet = %v, want %v", w.id, w.quiet, c.want)
				}
			}
		})
	}
}
