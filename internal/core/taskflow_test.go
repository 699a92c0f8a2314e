package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gotaskflow/internal/executor"
)

// tracer records task completion order for dependency-order assertions.
type tracer struct {
	mu    sync.Mutex
	order []string
	pos   map[string]int
}

func newTracer() *tracer { return &tracer{pos: map[string]int{}} }

func (tr *tracer) hit(name string) func() {
	return func() {
		tr.mu.Lock()
		tr.pos[name] = len(tr.order)
		tr.order = append(tr.order, name)
		tr.mu.Unlock()
	}
}

func (tr *tracer) before(t *testing.T, a, b string) {
	t.Helper()
	pa, oka := tr.pos[a]
	pb, okb := tr.pos[b]
	if !oka || !okb {
		t.Fatalf("missing tasks in trace: %s=%v %s=%v (trace %v)", a, oka, b, okb, tr.order)
	}
	if pa >= pb {
		t.Fatalf("%s (pos %d) did not run before %s (pos %d); trace %v", a, pa, b, pb, tr.order)
	}
}

func TestListing1Diamond(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	tr := newTracer()
	ts := tf.Emplace(tr.hit("A"), tr.hit("B"), tr.hit("C"), tr.hit("D"))
	A, B, C, D := ts[0], ts[1], ts[2], ts[3]
	A.Precede(B, C)
	B.Precede(D)
	C.Precede(D)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	tr.before(t, "A", "B")
	tr.before(t, "A", "C")
	tr.before(t, "B", "D")
	tr.before(t, "C", "D")
	if len(tr.order) != 4 {
		t.Fatalf("ran %d tasks, want 4", len(tr.order))
	}
}

func TestFigure2StaticGraph(t *testing.T) {
	// The 7-task 8-edge graph of paper Figure 2 / Listing 3.
	tf := New(2)
	defer tf.Close()
	tr := newTracer()
	ts := tf.Emplace(
		tr.hit("a0"), tr.hit("a1"), tr.hit("a2"), tr.hit("a3"),
		tr.hit("b0"), tr.hit("b1"), tr.hit("b2"),
	)
	a0, a1, a2, a3, b0, b1, b2 := ts[0], ts[1], ts[2], ts[3], ts[4], ts[5], ts[6]
	a0.Precede(a1)
	a1.Precede(a2, b2)
	a2.Precede(a3)
	b0.Precede(b1)
	b1.Precede(a2, b2)
	b2.Precede(a3)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{
		{"a0", "a1"}, {"a1", "a2"}, {"a1", "b2"}, {"a2", "a3"},
		{"b0", "b1"}, {"b1", "b2"}, {"b1", "a2"}, {"b2", "a3"},
	} {
		tr.before(t, e[0], e[1])
	}
}

func TestSucceed(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tr := newTracer()
	ts := tf.Emplace(tr.hit("X"), tr.hit("Y"), tr.hit("Z"))
	X, Y, Z := ts[0], ts[1], ts[2]
	Z.Succeed(X, Y)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	tr.before(t, "X", "Z")
	tr.before(t, "Y", "Z")
}

func TestSingleTask(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ran := false
	tf.Emplace1(func() { ran = true })
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("task did not run")
	}
}

func TestEmptyGraphWaitForAll(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDispatchNonBlocking(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	gate := make(chan struct{})
	var done atomic.Bool
	tf.Emplace1(func() { <-gate; done.Store(true) })
	f := tf.Dispatch()
	select {
	case <-f.Done():
		t.Fatal("future done before task could finish")
	default:
	}
	close(gate)
	f.Wait()
	if !done.Load() {
		t.Fatal("task not complete after Wait")
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDispatchThenNewGraph(t *testing.T) {
	// Paper Listing 6: after a dispatch, the taskflow holds a fresh graph;
	// emplacing again must not disturb the dispatched topology.
	tf := New(2)
	defer tf.Close()
	tr := newTracer()
	ts := tf.Emplace(tr.hit("A1"), tr.hit("B1"))
	ts[0].Precede(ts[1])
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}

	ts2 := tf.Emplace(tr.hit("A2"), tr.hit("B2"))
	ts2[1].Precede(ts2[0]) // reversed order this time
	f := tf.Dispatch()
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	tr.before(t, "A1", "B1")
	tr.before(t, "B2", "A2")
}

func TestSilentDispatch(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		tf.Emplace1(func() { n.Add(1) })
	}
	tf.SilentDispatch()
	if tf.NumNodes() != 0 {
		t.Fatalf("present graph has %d nodes after dispatch, want 0", tf.NumNodes())
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 10 {
		t.Fatalf("ran %d tasks, want 10", n.Load())
	}
}

func TestMultipleTopologies(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var n atomic.Int64
	futures := make([]*Future, 5)
	for k := 0; k < 5; k++ {
		for i := 0; i < 20; i++ {
			tf.Emplace1(func() { n.Add(1) })
		}
		futures[k] = tf.Dispatch()
	}
	if tf.NumTopologies() != 5 {
		t.Fatalf("NumTopologies() = %d, want 5", tf.NumTopologies())
	}
	for _, f := range futures {
		if err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if tf.NumTopologies() != 0 {
		t.Fatalf("topologies not reclaimed: %d", tf.NumTopologies())
	}
}

func TestFutureSharedAcrossGoroutines(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tf.Emplace1(func() {})
	f := tf.Dispatch()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Get(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tf.WaitForAll()
}

func TestPlaceholderWorkAssignment(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tr := newTracer()
	p := tf.Placeholder()
	if !p.IsPlaceholder() {
		t.Fatal("fresh placeholder reports work")
	}
	a := tf.Emplace1(tr.hit("A"))
	a.Precede(p)
	p.Work(tr.hit("P")) // decide the callable later (paper Section III-A)
	if p.IsPlaceholder() {
		t.Fatal("placeholder still empty after Work")
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	tr.before(t, "A", "P")
}

func TestPlaceholderRunsAsNoop(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tr := newTracer()
	a := tf.Emplace1(tr.hit("A"))
	p := tf.Placeholder() // pure synchronization point
	b := tf.Emplace1(tr.hit("B"))
	a.Precede(p)
	p.Precede(b)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	tr.before(t, "A", "B")
}

func TestEmptyTaskHandle(t *testing.T) {
	var empty Task
	if !empty.IsEmpty() {
		t.Fatal("zero Task not IsEmpty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Precede on empty handle did not panic")
		}
	}()
	empty.Precede(empty)
}

func TestTaskIntrospection(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {}, func() {})
	a, b, c := ts[0].Name("a"), ts[1], ts[2]
	a.Precede(b, c)
	if got := a.NumSuccessors(); got != 2 {
		t.Fatalf("NumSuccessors = %d, want 2", got)
	}
	if got := b.NumDependents(); got != 1 {
		t.Fatalf("NumDependents = %d, want 1", got)
	}
	if a.NameOf() != "a" {
		t.Fatalf("NameOf = %q, want a", a.NameOf())
	}
	if a.IsEmpty() {
		t.Fatal("bound task reports IsEmpty")
	}
	tf.WaitForAll()
}

func TestPanicBecomesError(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var after atomic.Bool
	ts := tf.Emplace(func() { panic("boom") }, func() { after.Store(true) })
	ts[0].Name("bad").Precede(ts[1])
	err := tf.WaitForAll()
	if err == nil {
		t.Fatal("WaitForAll returned nil error after task panic")
	}
	if !after.Load() {
		t.Fatal("successor of panicking task did not run; graph must drain")
	}
}

func TestPanicViaFutureGet(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tf.Emplace1(func() { panic(42) })
	f := tf.Dispatch()
	if err := f.Get(); err == nil {
		t.Fatal("Future.Get() = nil, want panic error")
	}
	tf.WaitForAll()
}

func TestNoSourceCycleDetected(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {})
	ts[0].Precede(ts[1])
	ts[1].Precede(ts[0]) // 2-cycle: no source
	f := tf.Dispatch()
	if err := f.Get(); err != ErrNoSource {
		t.Fatalf("Future.Get() = %v, want ErrNoSource", err)
	}
	tf.WaitForAll()
}

func TestValidate(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {}, func() {})
	ts[0].Precede(ts[1])
	ts[1].Precede(ts[2])
	if err := tf.Validate(); err != nil {
		t.Fatalf("Validate() on DAG = %v", err)
	}
	ts[2].Precede(ts[1]) // introduce cycle reachable from a source
	err := tf.Validate()
	if !errors.Is(err, ErrCyclic) {
		t.Fatalf("Validate() = %v, want ErrCyclic", err)
	}
	// The error names the offending tasks (placeholder labels here).
	if !strings.Contains(err.Error(), "->") {
		t.Fatalf("Validate() error does not name the cycle: %v", err)
	}
	// Do not dispatch the cyclic graph; rebuild.
	tf.g = &graph{}
	tf.WaitForAll()
}

func TestSharedExecutor(t *testing.T) {
	e := executor.New(4)
	defer e.Shutdown()
	var n atomic.Int64
	tfs := make([]*Taskflow, 3)
	for i := range tfs {
		tfs[i] = NewShared(e)
		for k := 0; k < 50; k++ {
			tfs[i].Emplace1(func() { n.Add(1) })
		}
	}
	for _, tf := range tfs {
		tf.SilentDispatch()
	}
	for _, tf := range tfs {
		if err := tf.WaitForAll(); err != nil {
			t.Fatal(err)
		}
		tf.Close() // must not shut down the shared executor
	}
	if n.Load() != 150 {
		t.Fatalf("ran %d tasks, want 150", n.Load())
	}
	// Executor must still be usable after taskflow Close.
	tf := NewShared(e)
	tf.Emplace1(func() { n.Add(1) })
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 151 {
		t.Fatal("shared executor unusable after Taskflow.Close")
	}
}

func TestWideFanOutFanIn(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var n atomic.Int64
	src := tf.Emplace1(func() { n.Add(1) })
	sink := tf.Emplace1(func() {
		if n.Load() != 1001 {
			t.Errorf("sink saw %d completions, want 1001", n.Load())
		}
	})
	for i := 0; i < 1000; i++ {
		mid := tf.Emplace1(func() { n.Add(1) })
		src.Precede(mid)
		mid.Precede(sink)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
}

func TestLongLinearChain(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	const n = 10000
	counter := 0
	prev := tf.Emplace1(func() { counter++ })
	for i := 1; i < n; i++ {
		cur := tf.Emplace1(func() { counter++ })
		prev.Precede(cur)
		prev = cur
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	// A linear chain is sequentialized by dependencies, so no data race on
	// counter and the count must be exact.
	if counter != n {
		t.Fatalf("counter = %d, want %d", counter, n)
	}
}

// Property: for random DAGs, every edge (u,v) observes u finishing before v
// starts.
func TestQuickRandomDAGRespectsDependencies(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	f := func(adj [][]byte, seed uint8) bool {
		n := len(adj)
		if n == 0 {
			return true
		}
		if n > 24 {
			n = 24
		}
		start := make([]atomic.Int64, n)
		finish := make([]atomic.Int64, n)
		var clock atomic.Int64
		tasks := make([]Task, n)
		for i := 0; i < n; i++ {
			i := i
			tasks[i] = tf.Emplace1(func() {
				start[i].Store(clock.Add(1))
				finish[i].Store(clock.Add(1))
			})
		}
		type edge struct{ u, v int }
		var edges []edge
		for u := 0; u < n; u++ {
			row := adj[u]
			for k := range row {
				v := u + 1 + (int(row[k]) % (n - u))
				if v <= u || v >= n {
					continue
				}
				tasks[u].Precede(tasks[v])
				edges = append(edges, edge{u, v})
			}
		}
		if err := tf.WaitForAll(); err != nil {
			return false
		}
		for _, e := range edges {
			if finish[e.u].Load() >= start[e.v].Load() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskflowNameAndSetName(t *testing.T) {
	tf := New(1).SetName("mygraph")
	defer tf.Close()
	if tf.name != "mygraph" {
		t.Fatalf("name = %q", tf.name)
	}
	tf.WaitForAll()
}

func TestReDispatchManyRounds(t *testing.T) {
	// Stress topology reclamation: many build/dispatch/wait rounds on one
	// taskflow instance.
	tf := New(4)
	defer tf.Close()
	var n atomic.Int64
	for round := 0; round < 100; round++ {
		ts := tf.Emplace(func() { n.Add(1) }, func() { n.Add(1) }, func() { n.Add(1) })
		ts[0].Precede(ts[1], ts[2])
		if err := tf.WaitForAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Load() != 300 {
		t.Fatalf("ran %d tasks, want 300", n.Load())
	}
}

func TestConcurrentFutureWaiters(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	const rounds = 20
	for r := 0; r < rounds; r++ {
		var n atomic.Int64
		for i := 0; i < 10; i++ {
			tf.Emplace1(func() { n.Add(1) })
		}
		f := tf.Dispatch()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.Wait()
				if n.Load() != 10 {
					t.Errorf("waiter observed %d completions, want 10", n.Load())
				}
			}()
		}
		wg.Wait()
		tf.WaitForAll()
	}
}

func TestMillionTaskGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The paper targets million-scale tasking; verify correctness at scale.
	tf := New(0)
	defer tf.Close()
	const n = 1 << 20
	var sum atomic.Int64
	ts := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, tf.Emplace1(func() { sum.Add(1) }))
	}
	// Sparse random-ish dependencies: i -> i+1 for every 2nd node.
	for i := 0; i+1 < n; i += 2 {
		ts[i].Precede(ts[i+1])
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != n {
		t.Fatalf("ran %d tasks, want %d", sum.Load(), n)
	}
}

func ExampleTaskflow() {
	tf := New(1) // single worker for deterministic output
	defer tf.Close()
	ts := tf.Emplace(
		func() { fmt.Println("Task A") },
		func() { fmt.Println("Task B") },
	)
	ts[0].Precede(ts[1])
	tf.WaitForAll()
	// Output:
	// Task A
	// Task B
}
