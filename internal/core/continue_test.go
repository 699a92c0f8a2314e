package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/sim"
)

// chainOf builds a chain of n tasks on tf, each adding one to *hits.
func chainOf(tf *Taskflow, n int, hits *int) {
	prev := tf.Emplace1(func() { *hits++ })
	for i := 1; i < n; i++ {
		next := tf.Emplace1(func() { *hits++ })
		prev.Precede(next)
		prev = next
	}
}

// TestContinueChainTraced: every link of a chain runs as its releaser's
// continuation, and the trace still shows one start/end pair per task, on
// one worker, each start stamped with its releaser's end stamp — one clock
// reading per hand-off.
func TestContinueChainTraced(t *testing.T) {
	const chain = 4096
	e := executor.New(2, executor.WithTracing(4*chain))
	defer e.Shutdown()
	tf := NewShared(e)
	var hits int
	chainOf(tf, chain, &hits)
	tr := collectTrace(t, e, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if tr.Dropped != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped)
	}
	type span struct {
		starts, ends int
		start, end   time.Duration
		worker       int32
	}
	spans := map[uint64]*span{}
	for _, ev := range tr.Events {
		if ev.Kind != executor.EvTaskStart && ev.Kind != executor.EvTaskEnd {
			continue
		}
		sp := spans[ev.Meta.ID]
		if sp == nil {
			sp = &span{worker: ev.Worker}
			spans[ev.Meta.ID] = sp
		}
		if ev.Kind == executor.EvTaskStart {
			sp.starts++
			sp.start = ev.Ts
		} else {
			sp.ends++
			sp.end = ev.Ts
		}
	}
	if hits != chain || len(spans) != chain {
		t.Fatalf("%d bodies ran, %d tasks traced; want %d", hits, len(spans), chain)
	}
	nodes := tf.g.nodes
	for i, n := range nodes {
		sp := spans[n.traceID]
		if sp == nil || sp.starts != 1 || sp.ends != 1 {
			t.Fatalf("task %d traced %+v, want one start and one end", i, sp)
		}
		if i == 0 {
			continue
		}
		before := spans[nodes[i-1].traceID]
		if sp.worker != before.worker || sp.start != before.end {
			t.Fatalf("task %d starts at %v on worker %d, its releaser ended at %v on worker %d",
				i, sp.start, sp.worker, before.end, before.worker)
		}
	}
}

// TestContinueReconciles: continued tasks are cache hits to the metrics —
// every link but the chain's head on every run — and the conservation
// laws hold.
func TestContinueReconciles(t *testing.T) {
	const chain, runs = 1024, 3
	e := executor.New(2, executor.WithMetrics())
	defer e.Shutdown()
	tf := NewShared(e)
	var hits int
	chainOf(tf, chain, &hits)
	for i := 0; i < runs; i++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, _ := e.MetricsSnapshot()
		err := snap.Reconcile()
		tot := snap.Total()
		if err == nil && tot.Executed == chain*runs {
			if tot.CacheHits != (chain-1)*runs {
				t.Fatalf("cache hits %d, want %d", tot.CacheHits, (chain-1)*runs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("executed %d of %d: %v", tot.Executed, chain*runs, err)
		}
		time.Sleep(time.Millisecond)
	}
	if hits != chain*runs {
		t.Fatalf("%d bodies ran, want %d", hits, chain*runs)
	}
}

// TestContinueReconcilesRecorded: on a pool that records, a worker batches
// the cache hits of its continuations and settles them before it lets the
// run's waiter go, so right after Run returns CacheHits is exact, Executed
// — derived from it — equals the bodies that ran, and the laws hold.
func TestContinueReconcilesRecorded(t *testing.T) {
	const chain, runs = 40, 6
	e := executor.New(2, executor.WithMetrics(), executor.WithFlightRecorder(0))
	defer e.Shutdown()
	tf := NewShared(e)
	var hits int
	chainOf(tf, chain, &hits)
	for i := 1; i <= runs; i++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		snap, _ := e.MetricsSnapshot()
		tot := snap.Total()
		if tot.Executed != uint64(hits) || tot.CacheHits != uint64(i*(chain-1)) {
			t.Fatalf("run %d: executed %d, cache hits %d; want the %d bodies run and %d", i, tot.Executed, tot.CacheHits, hits, i*(chain-1))
		}
		if err := snap.Reconcile(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestContinueExactlyOnceBySeed: under simulation, as on the pool, every
// hand-off of a chain is a continuation, run in its releaser's step, and
// every schedule executes each task exactly once per run.
func TestContinueExactlyOnceBySeed(t *testing.T) {
	const chain, runs = 64, 2
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(0); seed < 50; seed++ {
			s := sim.New(workers, sim.WithSeed(seed))
			tf := NewShared(s)
			var hits int
			chainOf(tf, chain, &hits)
			for i := 0; i < runs; i++ {
				if err := tf.Run(); err != nil {
					t.Fatalf("w%d seed %d: %v", workers, seed, err)
				}
			}
			st := s.Stats()
			if err := st.Check(); err != nil {
				t.Fatalf("w%d seed %d: %v", workers, seed, err)
			}
			if err := s.Failure(); err != nil {
				t.Fatalf("w%d seed %d: %v", workers, seed, err)
			}
			if hits != chain*runs || st.Executed != chain*runs {
				t.Fatalf("w%d seed %d: %d bodies ran, sim executed %d; want %d", workers, seed, hits, st.Executed, chain*runs)
			}
			if handOffs := uint64((chain - 1) * runs); st.Continued != handOffs {
				t.Fatalf("w%d seed %d: %d continuations, want one per hand-off, %d", workers, seed, st.Continued, handOffs)
			}
		}
	}
}

// TestSinglePredConditionBackEdge: a node with one strong predecessor and a
// weak back-edge from a condition task is released by both without its
// join counter, and runs exactly the loop's trip count, run after run.
func TestSinglePredConditionBackEdge(t *testing.T) {
	const trips = 7
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			e := executor.New(workers)
			defer e.Shutdown()
			tf := NewShared(e)
			var body, after atomic.Int32
			i := 0
			init := tf.Emplace1(func() { i = 0 })
			loop := tf.Emplace1(func() { body.Add(1); i++ })
			cond := tf.EmplaceCondition(func() int {
				if i < trips {
					return 0
				}
				return 1
			})
			exit := tf.Emplace1(func() { after.Add(1) })
			init.Precede(loop)
			loop.Precede(cond)
			cond.Precede(loop, exit)
			if loop.node.numDependents != 1 {
				t.Fatalf("loop has %d strong predecessors, want 1", loop.node.numDependents)
			}
			for run := 1; run <= 3; run++ {
				if err := tf.Run(); err != nil {
					t.Fatal(err)
				}
				if got := body.Load(); got != int32(run*trips) || after.Load() != int32(run) {
					t.Fatalf("run %d: loop body ran %d times in all, exit %d; want %d and %d",
						run, got, after.Load(), run*trips, run)
				}
			}
		})
	}
}

// TestSinglePredGainsSecondPredecessor: a node that ran with one strong
// predecessor and gains a second before the next Run waits for both: the
// join counter it skipped is back in use, and the fused link compiled into
// its first predecessor is undone — also when a Composed parent, not the
// graph's own Run, was the last to execute it.
func TestSinglePredGainsSecondPredecessor(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			for _, host := range []string{"plain", "composed"} {
				t.Run(host, func(t *testing.T) {
					testSinglePredGainsSecondPredecessor(t, workers, host == "composed")
				})
			}
		})
	}
}

func testSinglePredGainsSecondPredecessor(t *testing.T, workers int, composed bool) {
	e := executor.New(workers)
	defer e.Shutdown()
	tf := NewShared(e)
	var aDone, bDone atomic.Bool
	var sawBoth, runs atomic.Int32
	a := tf.Emplace1(func() { aDone.Store(true) })
	b := tf.Emplace1(func() {
		time.Sleep(time.Millisecond)
		bDone.Store(true)
	})
	c := tf.Emplace1(func() {
		runs.Add(1)
		if aDone.Load() && bDone.Load() {
			sawBoth.Add(1)
		}
	})
	a.Precede(c)
	run := tf.Run
	if composed {
		parent := NewShared(e)
		parent.Composed(tf)
		run = parent.Run
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if !a.node.fused {
		t.Fatal("a→c, c's one predecessor, is no fused link")
	}
	b.Precede(c)
	for i := 0; i < 20; i++ {
		aDone.Store(false)
		bDone.Store(false)
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if a.node.fused {
		t.Fatal("a→c is still a fused link after c gained a second predecessor")
	}
	if runs.Load() != 21 || sawBoth.Load() != 20 {
		t.Fatalf("c ran %d times, %d of them after both predecessors; want 21 and 20", runs.Load(), sawBoth.Load())
	}
}

// depthModule retires within Start and records how deep Start runs.
type depthModule struct{ depths []int }

func (m *depthModule) Start(ctx executor.Context, j Join) {
	var pcs [1024]uintptr
	m.depths = append(m.depths, runtime.Callers(0, pcs[:]))
	j.Done(ctx)
}

// TestContinueModuleLoopStaysFlat: a module task that retires within its
// Start, looped by a condition task on one worker, starts at the same
// stack depth every iteration — what its completion releases is not run
// inside the module's frame.
func TestContinueModuleLoopStaysFlat(t *testing.T) {
	const trips = 200
	tf := New(1)
	defer tf.Close()
	m := &depthModule{}
	i := 0
	mod := tf.EmplaceModule(m)
	cond := tf.EmplaceCondition(func() int {
		if i++; i < trips {
			return 0
		}
		return 1
	})
	tf.Emplace1(func() { i = 0 }).Precede(mod)
	mod.Precede(cond)
	cond.Precede(mod, tf.Emplace1(func() {}))
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.depths) != trips {
		t.Fatalf("module started %d times, want %d", len(m.depths), trips)
	}
	for k, d := range m.depths {
		if d != m.depths[0] {
			t.Fatalf("iteration %d starts %d frames deep, the first %d", k, d, m.depths[0])
		}
	}
}
