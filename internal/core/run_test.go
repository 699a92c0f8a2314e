package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"gotaskflow/internal/graphgen"
)

func TestRunExecutesGraph(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var n atomic.Int64
	a := tf.Emplace1(func() { n.Add(1) }).Name("a")
	b := tf.Emplace1(func() { n.Add(1) }).Name("b")
	c := tf.Emplace1(func() { n.Add(1) }).Name("c")
	a.Precede(b)
	b.Precede(c)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 3 {
		t.Fatalf("after one run: n = %d, want 3", n.Load())
	}
	// Run does not consume the graph: it executes again.
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 6 {
		t.Fatalf("after two runs: n = %d, want 6", n.Load())
	}
	if tf.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d after Run, want 3 (graph not consumed)", tf.NumNodes())
	}
}

func TestRunN(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	tf.Emplace1(func() { n.Add(1) })
	if err := tf.RunN(50); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Fatalf("RunN(50): n = %d", n.Load())
	}
}

func TestRunEmptyGraph(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	if err := tf.Run(); err != nil {
		t.Fatalf("Run on empty graph: %v", err)
	}
}

func TestRunNoSource(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	a := tf.Emplace1(func() {})
	b := tf.Emplace1(func() {})
	a.Precede(b)
	b.Precede(a) // cycle: no source
	if err := tf.Run(); !errors.Is(err, ErrNoSource) {
		t.Fatalf("Run on cyclic graph: err = %v, want ErrNoSource", err)
	}
}

func TestRunRebuildsAfterAddingTasks(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var a, b atomic.Int64
	tf.Emplace1(func() { a.Add(1) })
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	// Growing the graph invalidates the cached run state.
	tf.Emplace1(func() { b.Add(1) })
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 2 || b.Load() != 1 {
		t.Fatalf("a = %d, b = %d; want 2, 1", a.Load(), b.Load())
	}
}

func TestRunPanicRecovered(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	boom := true
	tf.Emplace1(func() {
		if boom {
			panic("kaboom")
		}
	}).Name("volatile")
	err := tf.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run with panicking task: err = %v", err)
	}
	// The error does not stick to the next run.
	boom = false
	if err := tf.Run(); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

func TestRunConditionLoop(t *testing.T) {
	// A condition task loops back on itself: join counters must re-arm
	// correctly both within a run and across runs.
	tf := New(2)
	defer tf.Close()
	var body atomic.Int64
	i := 0
	init := tf.Emplace1(func() { i = 0 })
	work := tf.Emplace1(func() { body.Add(1); i++ })
	cond := tf.EmplaceCondition(func() int {
		if i < 5 {
			return 0 // loop back to work
		}
		return 1 // exit
	})
	exit := tf.Emplace1(func() {})
	init.Precede(work)
	work.Precede(cond)
	cond.Precede(work, exit)
	for r := 1; r <= 3; r++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		if body.Load() != int64(5*r) {
			t.Fatalf("run %d: body ran %d times, want %d", r, body.Load(), 5*r)
		}
	}
}

func TestRunSubflow(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var n atomic.Int64
	tf.EmplaceSubflow(func(sf *Subflow) {
		a := sf.Emplace1(func() { n.Add(1) })
		b := sf.Emplace1(func() { n.Add(1) })
		a.Precede(b)
	})
	if err := tf.RunN(4); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 8 {
		t.Fatalf("subflow body ran %d times, want 8", n.Load())
	}
}

func TestRunWithSemaphoreSource(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	sem := NewSemaphore(1)
	var inside, peak atomic.Int64
	for i := 0; i < 4; i++ {
		task := tf.Emplace1(func() {
			v := inside.Add(1)
			for {
				p := peak.Load()
				if v <= p || peak.CompareAndSwap(p, v) {
					break
				}
			}
			inside.Add(-1)
		})
		task.Acquire(sem)
		task.Release(sem)
	}
	if err := tf.RunN(3); err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Fatalf("semaphore admitted %d concurrent tasks, want 1", peak.Load())
	}
}

func TestRunThenDispatch(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	tf.Emplace1(func() { n.Add(1) })
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	tf.SilentDispatch() // consumes the graph
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 2 {
		t.Fatalf("n = %d, want 2", n.Load())
	}
	// Graph was consumed by Dispatch; Run now sees an empty graph.
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 2 {
		t.Fatalf("Run after Dispatch re-ran a consumed graph: n = %d", n.Load())
	}
}

// Steady-state re-runs of a linear chain must be allocation-free: every
// scheduling step pushes the node's intrusive task reference, the reusable
// topology signals its buffered done channel, and the cached source batch
// is reused as-is.
func TestRunLinearChainZeroAlloc(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 0; i < 63; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil { // build run state outside measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("linear-chain Run allocates %v objects/run, want 0", allocs)
	}
}

// Steady-state re-runs of a wide random DAG must be allocation-free too:
// every Run batches ~1600 sources onto the injection queue, and the ring
// that grew for the first batch must still be that size for the next one
// (it used to shrink behind every drain and regrow on every Run).
func TestRunTraversalZeroAlloc(t *testing.T) {
	d := graphgen.Random(8192, graphgen.Config{MaxIn: 4, MaxOut: 4, Seed: 1})
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	tasks := make([]Task, d.N)
	for v := range tasks {
		tasks[v] = tf.Emplace1(func() { n.Add(1) })
	}
	for u := range tasks {
		d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
	}
	for i := 0; i < 3; i++ { // run state, ring growth and the ring's memory of it
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("random-DAG Run allocates %v objects/run, want 0", allocs)
	}
	if got, want := n.Load(), int64(24*d.N); got != want {
		t.Fatalf("executed %d tasks over 24 runs, want %d", got, want)
	}
}

// Diamond fan-out/fan-in re-runs stay within one allocation per node (in
// practice zero: batch submission reuses the ring and intrusive refs).
func TestRunDiamondAllocBound(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	const width = 16
	var n atomic.Int64
	src := tf.Emplace1(func() { n.Add(1) })
	sink := tf.Emplace1(func() { n.Add(1) })
	for i := 0; i < width; i++ {
		mid := tf.Emplace1(func() { n.Add(1) })
		src.Precede(mid)
		mid.Precede(sink)
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	nodes := float64(tf.NumNodes())
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > nodes {
		t.Fatalf("diamond Run allocates %v objects/run for %v nodes, want <= 1 per node", allocs, nodes)
	}
}

// Auto-chunked algorithms must partition by the executor that will run the
// flow: a 2-worker taskflow splits work into 4*2 chunks, not 4*NumCPU.
func TestParallelForChunksByWorkerCount(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	items := make([]int, 800)
	before := tf.NumNodes()
	ParallelFor(tf, items, func(int) {}, 0)
	// S + T placeholders plus exactly 4*workers chunk tasks.
	chunks := tf.NumNodes() - before - 2
	if chunks != 8 {
		t.Fatalf("auto-chunk created %d chunk tasks on a 2-worker flow, want 8", chunks)
	}
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
}
