package executor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// continueChain returns n links; link i runs body(i) and then takes link
// i+1 as its continuation, running it in its own frame when the worker
// grants it — the loop node.Run makes of it in internal/core.
func continueChain(n int, body func(i int)) []*Runnable {
	links := make([]*Runnable, n)
	for i := range links {
		i := i
		links[i] = NewTask(func(ctx Context) {
			for {
				body(i)
				if i++; i == n || !ctx.Continue(links[i]) {
					return
				}
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

// TestContinueDeclinesWhileCacheOccupied: with the cache slot taken the
// worker declines and takes the task the SubmitCached way — queued — so
// the caller must not run it; everything still runs exactly once.
func TestContinueDeclinesWhileCacheOccupied(t *testing.T) {
	e := New(1, WithMetrics())
	defer e.Shutdown()
	var ran sync.WaitGroup
	ran.Add(3)
	var granted, declined atomic.Bool
	err := e.Submit(NewTask(func(ctx Context) {
		ctx.SubmitCached(NewTask(func(Context) { ran.Done() }))
		declined.Store(!ctx.Continue(NewTask(func(Context) { ran.Done() })))
	}))
	if err != nil {
		t.Fatal(err)
	}
	// The cached task has run by the time this one does: the slot is free.
	err = e.Submit(NewTask(func(ctx Context) {
		next := NewTask(func(Context) { ran.Done() })
		if ctx.Continue(next) {
			granted.Store(true)
			(*next).Run(ctx)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ran.Wait()
	if !declined.Load() || !granted.Load() {
		t.Fatalf("declined %v with the slot taken, granted %v with it free", declined.Load(), granted.Load())
	}
	quiesce(t, e)
}

// TestContinueAdvancesExecutedPerLink: a continuation counts as executed
// when it begins, not when the frame it runs in returns, so a chain of
// slow links beside queued work is progress to the stall watchdog.
func TestContinueAdvancesExecutedPerLink(t *testing.T) {
	const links, link = 20, 5 * time.Millisecond
	e := New(1, WithMetrics())
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
// sequences.
func TestSweepStartCoversEveryWorker(t *testing.T) {
	const n, draws = 5, 5000
	e := New(n)
	defer e.Shutdown()
	e.Shutdown() // the workers exit: their states are the test's alone
	seqs := map[[8]int]bool{}
	for _, w := range e.workers {
		var hits [n]int
		var seq [8]int
		for d := 0; d < draws; d++ {
			v := w.sweepStart(n)
			if v < 0 || v >= n {
				t.Fatalf("worker %d drew start %d outside [0, %d)", w.id, v, n)
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
				t.Fatalf("worker %d swept itself first %d times", w.id, h)
			case v != w.id && (h < draws/(n-1)/2 || h > 2*draws/(n-1)):
				t.Fatalf("worker %d: first victims %v, not near uniform over the others", w.id, hits)
			}
		}
		seqs[seq] = true
	}
	if len(seqs) != n {
		t.Fatalf("%d workers drew only %d distinct sweep sequences", n, len(seqs))
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
		{"panic-handler", []Option{WithPanicHandler(func(int, any) {})}, true},
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
