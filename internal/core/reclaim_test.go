package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gotaskflow/internal/executor"
)

// buildLayeredDAG emplaces a layers x width DAG into tf through the handle
// scratch ts: every task of a layer precedes its own column and the next in
// the layer below. fn is shared, so building allocates no closures.
func buildLayeredDAG(tf *Taskflow, ts []Task, layers, width int, fn func()) {
	for i := 0; i < layers*width; i++ {
		ts[i] = tf.Emplace1(fn)
	}
	for l := 0; l+1 < layers; l++ {
		for c := 0; c < width; c++ {
			ts[l*width+c].Precede(ts[(l+1)*width+c], ts[(l+1)*width+(c+1)%width])
		}
	}
}

// A dispatch -> Get -> Reclaim loop over a 1000-node DAG must settle at a
// handful of allocations: the topology, its done channel and ready buffers,
// the source batch and the Future. Nodes, node list and graph come back
// from the free list.
func TestReclaimAllocBound(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	const layers, width = 40, 25
	var ran atomic.Int64
	fn := func() { ran.Add(1) }
	ts := make([]Task, layers*width)
	iter := func() {
		buildLayeredDAG(tf, ts, layers, width, fn)
		if err := tf.Dispatch().Get(); err != nil {
			t.Fatal(err)
		}
		if err := tf.Reclaim(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		iter() // fill the free list
	}
	ran.Store(0)
	const runs = 50
	allocs := testing.AllocsPerRun(runs, iter)
	if allocs > 8 {
		t.Fatalf("dispatch/Get/Reclaim of a %d-node DAG allocates %v objects per iteration, want <= 8", layers*width, allocs)
	}
	if got, want := ran.Load(), int64((runs+1)*layers*width); got != want {
		t.Fatalf("%d task bodies ran, want %d", got, want)
	}
}

// A node with more successors than fit inline spills them to a slice, and a
// recycled node keeps that slice's capacity: a fan of 12 rebuilt through
// Reclaim allocates its spill on the first build only, and from then on
// what a fan of 4, which never spills, allocates — the dispatch's handful.
func TestReclaimKeepsSpillCapacity(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var ran atomic.Int64
	fn := func() { ran.Add(1) }
	rebuild := func(fan int) float64 {
		iter := func() {
			src := tf.Emplace1(fn)
			for i := 0; i < fan; i++ {
				src.Precede(tf.Emplace1(fn))
			}
			if got := src.NumSuccessors(); got != fan {
				t.Fatalf("the source has %d successors, want %d", got, fan)
			}
			if err := tf.Reclaim(); err != nil {
				t.Fatal(err)
			}
		}
		iter() // the one build that pays for the spill
		ran.Store(0)
		const runs = 100
		allocs := testing.AllocsPerRun(runs, iter)
		if got, want := ran.Load(), int64((runs+1)*(fan+1)); got != want {
			t.Fatalf("fan of %d: %d task bodies ran, want %d", fan, got, want)
		}
		return allocs
	}
	if inline, spilled := rebuild(4), rebuild(12); spilled != inline {
		t.Fatalf("rebuilding a fan of 12 allocates %v objects per iteration, a fan of 4 %v: the spill is made again", spilled, inline)
	}
}

// shape is one graph of TestReclaimRebuildsDifferentShapes: build emplaces
// it into tf counting body executions in ran and returns the count a
// complete run must reach, after launches it (nil: plain Dispatch) and
// wantErr names the failure Get must report ("" for none).
type shape struct {
	name    string
	build   func(tf *Taskflow, ran *atomic.Int64) int64
	launch  func(tf *Taskflow) *Future
	wantErr string
}

func reclaimShapes() []shape {
	errBoom := errors.New("boom")
	return []shape{
		{name: "dag", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			ts := make([]Task, 12*20)
			buildLayeredDAG(tf, ts, 12, 20, func() { ran.Add(1) })
			return 12 * 20
		}},
		{name: "fan with spilled successors", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			src := tf.Emplace1(func() { ran.Add(1) })
			sink := tf.Emplace1(func() { ran.Add(1) })
			for i := 0; i < 512; i++ {
				mid := tf.Emplace1(func() { ran.Add(1) })
				src.Precede(mid)
				mid.Precede(sink)
			}
			return 514
		}},
		{name: "condition loop", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			iters := 0
			init := tf.Emplace1(func() { ran.Add(1) })
			body := tf.Emplace1(func() { ran.Add(1) })
			cond := tf.EmplaceCondition(func() int {
				ran.Add(1)
				if iters++; iters < 7 {
					return 0
				}
				return 1
			})
			done := tf.Emplace1(func() { ran.Add(1) })
			init.Precede(body)
			body.Precede(cond)
			cond.Precede(body, done)
			return 1 + 7 + 7 + 1
		}},
		{name: "joined and detached subflows", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			var joined atomic.Int64
			a := tf.EmplaceSubflow(func(sf *Subflow) {
				ran.Add(1)
				for i := 0; i < 8; i++ {
					sf.Emplace1(func() { ran.Add(1); joined.Add(1) })
				}
			})
			b := tf.Emplace1(func() {
				ran.Add(1)
				if joined.Load() != 8 {
					ran.Add(1000) // ran before the subflow joined
				}
			})
			c := tf.EmplaceSubflow(func(sf *Subflow) {
				ran.Add(1)
				for i := 0; i < 4; i++ {
					sf.Emplace1(func() { ran.Add(1) })
				}
				sf.Detach()
			})
			a.Precede(b)
			b.Precede(c)
			return 1 + 8 + 1 + 1 + 4
		}},
		{name: "semaphore section", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			sem := NewSemaphore(1)
			var inside atomic.Int32
			for i := 0; i < 32; i++ {
				tf.Emplace1(func() {
					if inside.Add(1) != 1 {
						ran.Add(1000) // two tasks inside the critical section
					}
					ran.Add(1)
					inside.Add(-1)
				}).Acquire(sem).Release(sem)
			}
			return 32
		}},
		{name: "retry", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			attempts := 0
			a := tf.Emplace1(func() { ran.Add(1) })
			r := tf.EmplaceErr(func() error {
				ran.Add(1)
				if attempts++; attempts < 3 {
					return errBoom
				}
				return nil
			}).Retry(3, 0)
			b := tf.Emplace1(func() { ran.Add(1) })
			a.Precede(r)
			r.Precede(b)
			return 1 + 3 + 1
		}},
		{name: "failing task", wantErr: "boom", build: func(tf *Taskflow, ran *atomic.Int64) int64 {
			a := tf.Emplace1(func() { ran.Add(1) })
			f := tf.EmplaceErr(func() error { ran.Add(1); return errBoom }).Name("f")
			b := tf.Emplace1(func() { ran.Add(1) })
			c := tf.Emplace1(func() { ran.Add(1) })
			a.Precede(f)
			f.Precede(b)
			b.Precede(c)
			return 2 // b and c are skipped
		}},
		func() shape {
			var started, release chan struct{}
			return shape{name: "cancelled run", wantErr: ErrCancelled.Error(),
				build: func(tf *Taskflow, ran *atomic.Int64) int64 {
					started, release = make(chan struct{}), make(chan struct{})
					st, rl := started, release
					src := tf.Emplace1(func() { ran.Add(1); close(st); <-rl })
					for i := 0; i < 50; i++ {
						src.Precede(tf.Emplace1(func() { ran.Add(1) }))
					}
					return 1 // everything behind src is skipped
				},
				launch: func(tf *Taskflow) *Future {
					f := tf.Dispatch()
					<-started
					f.Cancel()
					close(release)
					return f
				}}
		}(),
	}
}

// Graphs of different shapes built one after another in the same recycled
// storage must each run exactly as if built fresh: anything a node's
// previous tenant left behind — spilled successors, semaphore lists, a retry
// policy, a spawned subgraph, join or children counts, its topology — would
// show up as a wrong body count, a wrong error or a hang.
func TestReclaimRebuildsDifferentShapes(t *testing.T) {
	shapes := reclaimShapes()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			tf := New(workers)
			defer tf.Close()
			for i := 0; i < 200; i++ {
				// 3 is coprime to the shape count: every shape follows
				// every other sooner or later.
				sh := shapes[(i*3+i/len(shapes))%len(shapes)]
				var ran atomic.Int64
				want := sh.build(tf, &ran)
				var f *Future
				if sh.launch != nil {
					f = sh.launch(tf)
				} else {
					f = tf.Dispatch()
				}
				err := f.Get()
				switch {
				case sh.wantErr == "" && err != nil:
					t.Fatalf("iteration %d, %s: Get = %v", i, sh.name, err)
				case sh.wantErr != "" && (err == nil || !strings.Contains(err.Error(), sh.wantErr)):
					t.Fatalf("iteration %d, %s: Get = %v, want an error containing %q", i, sh.name, err, sh.wantErr)
				}
				if got := ran.Load(); got != want {
					t.Fatalf("iteration %d, %s: %d body executions, want %d", i, sh.name, got, want)
				}
				if err := tf.Reclaim(); (err != nil) != (sh.wantErr != "") {
					t.Fatalf("iteration %d, %s: Reclaim = %v", i, sh.name, err)
				}
			}
		})
	}
}

// Edges that all follow emplace order prove the graph acyclic without a
// search; any edge against it sends the check to Kahn, which still accepts
// an acyclic graph and still names the tasks of a cycle. Kahn's scratch
// slices are the tell: the fast proof allocates nothing.
func TestDispatchOrderedEdgesSkipKahn(t *testing.T) {
	validateAllocs := func(tf *Taskflow) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := tf.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	noop := func() {}

	t.Run("in order", func(t *testing.T) {
		tf := New(2)
		defer tf.Close()
		var ran atomic.Int64
		ts := make([]Task, 200)
		buildLayeredDAG(tf, ts, 10, 20, func() { ran.Add(1) })
		if a := validateAllocs(tf); a != 0 {
			t.Fatalf("Validate of a graph wired in emplace order allocates %v objects, want 0 (no Kahn)", a)
		}
		if err := tf.Dispatch().Get(); err != nil || ran.Load() != 200 {
			t.Fatalf("Get = %v after %d bodies, want nil after 200", err, ran.Load())
		}
	})

	t.Run("acyclic in reverse", func(t *testing.T) {
		tf := New(2)
		defer tf.Close()
		const n = 100
		var order []int
		ts := make([]Task, n)
		for i := range ts {
			i := i
			ts[i] = tf.Emplace1(func() { order = append(order, i) })
		}
		for i := 0; i+1 < n; i++ {
			ts[i+1].Precede(ts[i]) // a chain from the last emplaced to the first
		}
		if a := validateAllocs(tf); a == 0 {
			t.Fatal("Validate of a graph wired against emplace order allocates nothing: Kahn did not run")
		}
		for _, launch := range []func() error{tf.Run, func() error { return tf.Dispatch().Get() }} {
			order = order[:0]
			if err := launch(); err != nil {
				t.Fatal(err)
			}
			for k, i := range order {
				if i != n-1-k {
					t.Fatalf("execution %d was task %d, want %d", k, i, n-1-k)
				}
			}
			if len(order) != n {
				t.Fatalf("%d tasks ran, want %d", len(order), n)
			}
		}
	})

	t.Run("back edge", func(t *testing.T) {
		tf := New(2)
		defer tf.Close()
		src := tf.Emplace1(noop).Name("src")
		a := tf.Emplace1(noop).Name("a")
		b := tf.Emplace1(noop).Name("b")
		c := tf.Emplace1(noop).Name("c")
		src.Precede(a)
		a.Precede(b)
		b.Precede(c)
		c.Precede(a)
		const want = "core: cycle through tasks b -> c -> a: core: task dependency graph contains a cycle"
		if err := tf.Validate(); err == nil || err.Error() != want || !errors.Is(err, ErrCyclic) {
			t.Fatalf("Validate = %v, want %q", err, want)
		}
		if err := tf.Run(); err == nil || err.Error() != want {
			t.Fatalf("Run = %v, want %q", err, want)
		}
		if err := tf.Dispatch().Get(); err == nil || err.Error() != want {
			t.Fatalf("Get = %v, want %q", err, want)
		}
	})

	t.Run("self loop", func(t *testing.T) {
		tf := New(2)
		defer tf.Close()
		src := tf.Emplace1(noop).Name("src")
		x := tf.Emplace1(noop).Name("x")
		src.Precede(x)
		x.Precede(x)
		x.Precede(tf.Emplace1(noop))
		const want = "core: cycle through tasks x: core: task dependency graph contains a cycle"
		if err := tf.Dispatch().Get(); err == nil || err.Error() != want || !errors.Is(err, ErrCyclic) {
			t.Fatalf("Get = %v, want %q", err, want)
		}
	})

	t.Run("condition loop", func(t *testing.T) {
		tf := New(2)
		defer tf.Close()
		iters := 0
		init := tf.Emplace1(noop)
		body := tf.Emplace1(func() { iters++ })
		cond := tf.EmplaceCondition(func() int {
			if iters < 5 {
				return 0
			}
			return 1
		})
		init.Precede(body)
		body.Precede(cond)
		cond.Precede(body, tf.Emplace1(noop)) // the weak edge back is no cycle
		if a := validateAllocs(tf); a != 0 {
			t.Fatalf("Validate of a condition loop allocates %v objects, want 0 (weak edges are not checked)", a)
		}
		if err := tf.Dispatch().Get(); err != nil || iters != 5 {
			t.Fatalf("Get = %v after %d iterations, want nil after 5", err, iters)
		}
	})
}

// TestNodeSize pins the node at 184 bytes: the display name moved in from
// nodeExt, the four 32-bit counts were packed together to make room, and
// one work value replaced five body closures. Every node of every graph is
// zeroed, scanned and walked at this size.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 184 {
		t.Fatalf("unsafe.Sizeof(node{}) = %d, want 184", got)
	}
}

func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

// A Task of a reclaimed graph is dead: every operation on it panics by name
// instead of reading a node that belongs to the free list.
func TestReclaimedTaskHandlePanics(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tf.Emplace1(func() {}) // its node is the one the next graph's first task gets
	a := tf.Emplace1(func() {}).Name("a")
	b := tf.Emplace1(func() {}).Name("b")
	a.Precede(b)
	if err := tf.Reclaim(); err != nil { // dispatches the present graph first, like WaitForAll
		t.Fatal(err)
	}
	live := tf.Emplace1(func() {})
	for op, fn := range map[string]func(){
		"Name":          func() { a.Name("x") },
		"NameOf":        func() { a.NameOf() },
		"Precede":       func() { a.Precede(live) },
		"Succeed":       func() { live.Succeed(b) },
		"Work":          func() { a.Work(func() {}) },
		"Retry":         func() { a.Retry(1, 0) },
		"Acquire":       func() { a.Acquire(NewSemaphore(1)) },
		"NumSuccessors": func() { a.NumSuccessors() },
		"NumDependents": func() { b.NumDependents() },
		"IsPlaceholder": func() { a.IsPlaceholder() },
	} {
		mustPanicWith(t, "core: "+op+" on a Task of a reclaimed graph", fn)
	}
	if live.NumSuccessors() != 0 || live.NumDependents() != 0 {
		t.Fatal("a refused operation still wired an edge")
	}
	if err := tf.Reclaim(); err != nil {
		t.Fatal(err)
	}
}

// A Future outlives its topology's graph: Get, Wait, Done and Cancelled
// answer as before, Stats reports that there is nothing left to read, and
// the topology is gone from the dumps.
func TestReclaimedFutureAndDumps(t *testing.T) {
	tf := New(2).CollectRunStats(true)
	defer tf.Close()
	boom := errors.New("boom")
	tf.EmplaceErr(func() error { return boom }).Name("f")
	f := tf.Dispatch()
	f.Wait()
	if rs, ok := f.Stats(); !ok || rs.Tasks != 1 {
		t.Fatalf("Stats before Reclaim = %+v, %v; want 1 task, true", rs, ok)
	}
	var sb strings.Builder
	if err := tf.DumpTopologies(&sb); err != nil || !strings.Contains(sb.String(), `"f"`) {
		t.Fatalf("DumpTopologies before Reclaim = %q, %v", sb.String(), err)
	}
	if err := tf.Reclaim(); !errors.Is(err, boom) {
		t.Fatalf("Reclaim = %v, want the task's failure", err)
	}
	if _, ok := f.Stats(); ok {
		t.Fatal("Stats of a reclaimed topology reports ok")
	}
	if err := f.Get(); !errors.Is(err, boom) {
		t.Fatalf("Get after Reclaim = %v, want the task's failure", err)
	}
	f.Wait()
	select {
	case <-f.Done():
	default:
		t.Fatal("Done of a reclaimed topology is open")
	}
	if !f.Cancelled() {
		t.Fatal("Cancelled after Reclaim = false for a topology its failing task cancelled")
	}
	f.Cancel() // finished: no effect
	sb.Reset()
	if err := tf.DumpTopologies(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("DumpTopologies after Reclaim = %q, %v; want nothing", sb.String(), err)
	}
	if tf.NumTopologies() != 0 {
		t.Fatalf("NumTopologies after Reclaim = %d", tf.NumTopologies())
	}
}

// Reclaim dispatches an undispatched present graph first, like WaitForAll —
// also one that Run has cached a topology for, whose run state must go.
func TestReclaimPresentGraph(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var ran atomic.Int64
	a := tf.Emplace1(func() { ran.Add(1) })
	a.Precede(tf.Emplace1(func() { ran.Add(1) }))
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d bodies after Run and Reclaim, want 4 (Reclaim dispatches the present graph)", got)
	}
	if tf.NumNodes() != 0 {
		t.Fatalf("present graph has %d nodes after Reclaim", tf.NumNodes())
	}
	if _, ok := tf.LastRunStats(); ok {
		t.Fatal("LastRunStats still answers from the reclaimed graph's run state")
	}
	mustPanicWith(t, "core: Precede on a Task of a reclaimed graph", func() { a.Precede(a) })
	// The next graph reuses the storage and runs on its own.
	tf.Emplace1(func() { ran.Add(1) })
	if err := tf.Run(); err != nil || ran.Load() != 5 {
		t.Fatalf("Run of the next graph = %v after %d bodies, want nil after 5", err, ran.Load())
	}
}

// Reclaim on a shared executor waits for topologies still running.
func TestReclaimWaitsForRunningTopologies(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	tf := NewShared(e)
	release := make(chan struct{})
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		tf.Emplace1(func() { <-release; ran.Add(1) }).Precede(tf.Emplace1(func() { ran.Add(1) }))
		tf.SilentDispatch()
	}
	close(release)
	if err := tf.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("Reclaim returned after %d of 6 bodies", got)
	}
}

// An executor that has gone idle must not be what keeps finished graphs
// alive: a worker's deque never clears the slot it pops or is robbed from,
// each stale slot reaches a node, the node its topology and the topology
// the whole graph. Workers scrub their deques on the way to sleep, so with
// the executor still up a collection frees every graph that is done with.
func TestScrubIdleExecutorFreesFinishedGraphs(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	tf := NewShared(e)
	const graphs = 50
	var freed atomic.Int64
	for g := 0; g < graphs; g++ {
		payload := new([1 << 10]byte)
		runtime.SetFinalizer(payload, func(*[1 << 10]byte) { freed.Add(1) })
		body := func() { _ = payload[0] }
		// A fan, so that tasks go through the deques and not only as
		// continuations.
		src, sink := tf.Emplace1(body), tf.Emplace1(body)
		for i := 0; i < 8; i++ {
			mid := tf.Emplace1(body)
			src.Precede(mid)
			mid.Precede(sink)
		}
		if err := tf.Dispatch().Get(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tf.WaitForAll(); err != nil { // drops the topologies; Reclaim would keep their nodes
		t.Fatal(err)
	}
	// The workers park within microseconds of the last task; finalizers run
	// on their own goroutine after the collection that finds the garbage.
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() != graphs {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finished graphs were freed while the executor idles", freed.Load(), graphs)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
