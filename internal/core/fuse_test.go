package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/sim"
)

// fuseWorkers are the pool sizes the fused-link tests run at.
var fuseWorkers = []int{1, 2, 4}

// fusePools are the pools the fused-link tests run on: a quiet one, on
// which a fused link is its body and its successor check, and one whose
// metrics book every link, which arms and continues each.
var fusePools = []struct {
	name string
	opts []executor.Option
}{
	{"plain", nil},
	{"metrics", []executor.Option{executor.WithMetrics()}},
}

// eachFusePool runs test as the subtests w<workers>/<pool>, on a fresh pool
// of every size in fuseWorkers and every kind in fusePools.
func eachFusePool(t *testing.T, test func(t *testing.T, e *executor.Executor)) {
	for _, workers := range fuseWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			for _, p := range fusePools {
				t.Run(p.name, func(t *testing.T) {
					e := executor.New(workers, p.opts...)
					defer e.Shutdown()
					test(t, e)
				})
			}
		})
	}
}

// countedChain builds an n-link chain of plain tasks named "k<i>"; link i
// adds one to hits[i] and then runs body(i).
func countedChain(tf *Taskflow, hits []atomic.Int32, body func(i int)) {
	var prev Task
	for i := range hits {
		task := tf.Emplace1(func() {
			hits[i].Add(1)
			body(i)
		}).Name(fmt.Sprintf("k%d", i))
		if i > 0 {
			prev.Precede(task)
		}
		prev = task
	}
}

// checkHits fails unless hits[i] == want(i) for every link.
func checkHits(t *testing.T, hits []atomic.Int32, want func(i int) int32) {
	t.Helper()
	for i := range hits {
		if got := hits[i].Load(); got != want(i) {
			t.Fatalf("link %d ran %d times, want %d", i, got, want(i))
		}
	}
}

// denseHosts are where a dense-path test builds its chain: the graph of the
// Taskflow it runs (plain), the graph of a Composed child of it (composed),
// or a subflow its one task spawns at every run (subflow).
var denseHosts = []string{"plain", "composed", "subflow"}

// denseHost returns a Taskflow on e whose every run runs the graph build
// makes, as host says (denseHosts).
func denseHost(e *executor.Executor, host string, build func(b *builder)) *Taskflow {
	tf := NewShared(e)
	switch host {
	case "plain":
		build(&tf.builder)
	case "composed":
		child := NewShared(e)
		build(&child.builder)
		tf.Composed(child)
	case "subflow":
		tf.EmplaceSubflow(func(sf *Subflow) { build(&sf.builder) })
	}
	return tf
}

// hostGraph returns the graph tf ran last that denseHost's build made.
func hostGraph(tf *Taskflow, host string) *graph {
	if host == "plain" {
		return tf.g
	}
	return tf.g.nodes[0].spawned()
}

// fallibleLink says which links of a mixed chain are func() error: they cut
// its plain links into dense paths 0..4, 6..12, 14..20, 22..28, ...
func fallibleLink(i int) bool { return i%8 == 5 }

// mixedChain builds into b a chain of len(hits) links named k<i>, link i a
// func() error where fallibleLink(i) and a func() elsewhere. Link i counts
// in early a start before link i-1 ran once more than it, counts itself in
// hits[i] and then runs body(i).
func mixedChain(b *builder, hits []atomic.Int32, early *atomic.Int32, body func(i int)) {
	var prev Task
	for i := range hits {
		step := func() {
			if i > 0 && hits[i-1].Load() != hits[i].Load()+1 {
				early.Add(1)
			}
			hits[i].Add(1)
			body(i)
		}
		var task Task
		if fallibleLink(i) {
			task = b.EmplaceErr(func() error { step(); return nil })
		} else {
			task = b.Emplace1(step)
		}
		task.Name(fmt.Sprintf("k%d", i))
		if i > 0 {
			prev.Precede(task)
		}
		prev = task
	}
}

// TestFusePanicAtLink: a plain link that panics inside a fused run is
// recorded under its own name, and the run completes it — its successor's
// release is traced as every other — and goes on, so every body runs
// exactly once. A re-Run reports the same.
func TestFusePanicAtLink(t *testing.T) {
	const n, k = 64, 23
	want := fmt.Sprintf("core: task %q panicked: boom", fmt.Sprintf("k%d", k))
	for _, workers := range fuseWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			e := executor.New(workers, executor.WithTracing(1<<12))
			defer e.Shutdown()
			tf := NewShared(e)
			hits := make([]atomic.Int32, n)
			countedChain(tf, hits, func(i int) {
				if i == k {
					panic("boom")
				}
			})
			for run := int32(1); run <= 2; run++ {
				var err error
				kinds := kindCounts(collectTrace(t, e, func() { err = tf.Run() }))
				if err == nil || err.Error() != want {
					t.Fatalf("run %d: error %v, want %q", run, err, want)
				}
				checkHits(t, hits, func(int) int32 { return run })
				if kinds[executor.EvTaskStart] != n || kinds[executor.EvDepRelease] != n-1 {
					t.Fatalf("run %d: %d task starts, %d releases traced; want %d and %d",
						run, kinds[executor.EvTaskStart], kinds[executor.EvDepRelease], n, n-1)
				}
			}
		})
	}
	// On a quiet pool the plain links run as dense paths from their graph's
	// body table. A panic in the middle of one, link 24 of the path 22..28,
	// is recorded under that link's name, and the path is re-entered at the
	// next link: every body runs exactly once a run, in chain order.
	for _, host := range denseHosts {
		t.Run("dense/"+host, func(t *testing.T) {
			eachFusePool(t, func(t *testing.T, e *executor.Executor) {
				const n, k = 48, 24
				want := fmt.Sprintf("core: task %q panicked: boom", fmt.Sprintf("k%d", k))
				hits := make([]atomic.Int32, n)
				var early atomic.Int32
				tf := denseHost(e, host, func(b *builder) {
					mixedChain(b, hits, &early, func(i int) {
						if i == k {
							panic("boom")
						}
					})
				})
				for run := int32(1); run <= 2; run++ {
					if err := tf.Run(); err == nil || err.Error() != want {
						t.Fatalf("run %d: error %v, want %q", run, err, want)
					}
					checkHits(t, hits, func(int) int32 { return run })
					if early.Load() != 0 {
						t.Fatalf("run %d: %d links started before the link before them", run, early.Load())
					}
				}
			})
		})
	}
}

// TestFusePanicAtFallibleLink: a func() error link that panics fails the
// topology with the error its execution outside a fused run reports, and
// the links after it are skipped.
func TestFusePanicAtFallibleLink(t *testing.T) {
	const n, k = 32, 9
	want := fmt.Sprintf("core: task %q failed: task panicked: boom", "k9")
	eachFusePool(t, func(t *testing.T, e *executor.Executor) {
		tf := NewShared(e)
		tf.CollectRunStats(false)
		var hits [n]atomic.Int32
		var prev Task
		for i := 0; i < n; i++ {
			task := tf.EmplaceErr(func() error {
				hits[i].Add(1)
				if i == k {
					panic("boom")
				}
				return nil
			}).Name(fmt.Sprintf("k%d", i))
			if i > 0 {
				prev.Precede(task)
			}
			prev = task
		}
		for run := int32(1); run <= 2; run++ {
			err := tf.Run()
			if err == nil || err.Error() != want {
				t.Fatalf("run %d: error %v, want %q", run, err, want)
			}
			checkHits(t, hits[:], func(i int) int32 {
				if i > k {
					return 0
				}
				return run
			})
			if rs, _ := tf.LastRunStats(); rs.Tasks != k+1 || rs.Skipped != n-k-1 {
				t.Fatalf("run %d: %d tasks, %d skipped; want %d and %d", run, rs.Tasks, rs.Skipped, k+1, n-k-1)
			}
		}
	})
}

// TestFuseCancelInsideLink: Future.Cancel from inside link k of a fused run
// skips every later link, and Get reports ErrCancelled.
func TestFuseCancelInsideLink(t *testing.T) {
	const n, k = 64, 17
	eachFusePool(t, func(t *testing.T, e *executor.Executor) {
		tf := NewShared(e)
		hits := make([]atomic.Int32, n)
		var fut atomic.Pointer[Future]
		dispatched := make(chan struct{})
		countedChain(tf, hits, func(i int) {
			switch i {
			case 0:
				<-dispatched
			case k:
				fut.Load().Cancel()
			}
		})
		fut.Store(tf.Dispatch())
		close(dispatched)
		if err := fut.Load().Get(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("Get = %v, want ErrCancelled", err)
		}
		checkHits(t, hits, func(i int) int32 {
			if i > k {
				return 0
			}
			return 1
		})
	})
	// The same inside a dense path, link 25 of the path 22..28 of a chain
	// cut into paths by fallible links, on every host.
	for _, host := range denseHosts {
		t.Run("dense/"+host, func(t *testing.T) {
			eachFusePool(t, func(t *testing.T, e *executor.Executor) {
				const n, k = 48, 25
				hits := make([]atomic.Int32, n)
				var early atomic.Int32
				var fut atomic.Pointer[Future]
				dispatched := make(chan struct{})
				tf := denseHost(e, host, func(b *builder) {
					mixedChain(b, hits, &early, func(i int) {
						switch i {
						case 0:
							<-dispatched
						case k:
							fut.Load().Cancel()
						}
					})
				})
				fut.Store(tf.Dispatch())
				close(dispatched)
				if err := fut.Load().Get(); !errors.Is(err, ErrCancelled) {
					t.Fatalf("Get = %v, want ErrCancelled", err)
				}
				checkHits(t, hits, func(i int) int32 {
					if i > k {
						return 0
					}
					return 1
				})
				if early.Load() != 0 {
					t.Fatalf("%d links started before the link before them", early.Load())
				}
			})
		})
	}
}

// denseTable reads g's body table as the names of each path's nodes, and
// fails unless every path ends in a nil whose slot names its last node,
// every node of a path is dense and placed at its position, and no other
// node is dense.
func denseTable(t *testing.T, g *graph) [][]string {
	t.Helper()
	var paths [][]string
	var cur []string
	placed := 0
	for i, body := range g.bodies {
		n := g.path[i]
		if body == nil {
			if len(cur) < 2 || n.name != cur[len(cur)-1] {
				t.Fatalf("path %v ends at %s", cur, n.name)
			}
			paths, cur = append(paths, cur), nil
			continue
		}
		if !n.dense || int(g.at[n.idx]) != i {
			t.Fatalf("%s at position %d: dense %v, placed at %d", n.name, i, n.dense, g.at[n.idx])
		}
		cur = append(cur, n.name)
		placed++
	}
	if cur != nil {
		t.Fatalf("path %v has no end", cur)
	}
	dense := 0
	for _, n := range g.nodes {
		if n.dense {
			dense++
		}
	}
	if dense != placed {
		t.Fatalf("%d dense nodes, %d in the table", dense, placed)
	}
	return paths
}

// wantPaths is the dense paths of an n-link mixed chain whose link i-1→i is
// no fused link where cut(i).
func wantPaths(n int, cut func(i int) bool) [][]string {
	var paths [][]string
	var cur []string
	for i := 0; i <= n; i++ {
		if i == n || fallibleLink(i) || (i > 0 && cut(i)) {
			if len(cur) >= 2 {
				paths = append(paths, cur)
			}
			cur = nil
		}
		if i < n && !fallibleLink(i) {
			cur = append(cur, fmt.Sprintf("k%d", i))
		}
	}
	return paths
}

// TestFuseDenseTable: the scans that arm a graph lay each maximal run of
// plain links joined by fused links out in the graph's body table — on the
// Taskflow's own graph, a Composed child and a subflow, also for a chain
// emplaced back to front, whose paths start at their last-emplaced node. An
// edge into the middle of a path has the next scan lay it again, cut in two.
func TestFuseDenseTable(t *testing.T) {
	const n = 30
	uncut := func(int) bool { return false }
	for _, order := range []string{"forward", "reverse"} {
		for _, host := range denseHosts {
			t.Run(order+"/"+host, func(t *testing.T) {
				e := executor.New(2)
				defer e.Shutdown()
				hits := make([]atomic.Int32, n)
				var early atomic.Int32
				tf := denseHost(e, host, func(b *builder) {
					if order == "forward" {
						mixedChain(b, hits, &early, func(int) {})
						return
					}
					// Build the chain in another graph and emplace its
					// nodes here back to front.
					src := NewShared(e)
					mixedChain(&src.builder, hits, &early, func(int) {})
					for i := n - 1; i >= 0; i-- {
						nd := src.g.nodes[i]
						task := b.add(nd.work).Name(nd.name)
						if i < n-1 {
							task.Precede(Task{b.g.nodes[n-2-i]})
						}
					}
				})
				for run := int32(1); run <= 2; run++ {
					if err := tf.Run(); err != nil {
						t.Fatal(err)
					}
					checkHits(t, hits, func(int) int32 { return run })
					if early.Load() != 0 {
						t.Fatalf("run %d: %d links started before the link before them", run, early.Load())
					}
					want := wantPaths(n, uncut)
					if order == "reverse" {
						slices.Reverse(want) // paths are laid in the order of their heads
					}
					if got := denseTable(t, hostGraph(tf, host)); !reflect.DeepEqual(got, want) {
						t.Fatalf("run %d: dense paths %v, want %v", run, got, want)
					}
				}
				if host == "subflow" {
					return
				}
				g := hostGraph(tf, host)
				// A new source into k9, the middle of the path 6..12.
				var x atomic.Int32
				var k9 Task
				for _, nd := range g.nodes {
					if nd.name == "k9" {
						k9 = Task{nd}
					}
				}
				(&builder{g}).Emplace1(func() { x.Add(1) }).Precede(k9)
				if err := tf.Run(); err != nil {
					t.Fatal(err)
				}
				checkHits(t, hits, func(int) int32 { return 3 })
				want := wantPaths(n, func(i int) bool { return i == 9 })
				if order == "reverse" {
					slices.Reverse(want)
				}
				if got := denseTable(t, g); x.Load() != 1 || !reflect.DeepEqual(got, want) {
					t.Fatalf("after the edit: x ran %d times, dense paths %v; want once, %v", x.Load(), got, want)
				}
			})
		}
	}
}

// TestFuseDenseTableAllocs: a graph's body table costs three slices when
// it is compiled and nothing when it is kept. A subflow, whose graph is new
// at every spawn, allocates three objects more per run when its chain is a
// dense path than when its links are fallible (no path); a chain rebuilt
// through Reclaim lays its table in the storage the reclaimed graph kept,
// and allocates what a fallible chain does.
func TestFuseDenseTableAllocs(t *testing.T) {
	const n = 64
	chain := func(b *builder, fallible bool) {
		var prev Task
		for i := 0; i < n; i++ {
			var task Task
			if fallible {
				task = b.EmplaceErr(func() error { return nil })
			} else {
				task = b.Emplace1(func() {})
			}
			if i > 0 {
				prev.Precede(task)
			}
			prev = task
		}
	}
	subflow := func(fallible bool) float64 {
		tf := New(2)
		defer tf.Close()
		tf.EmplaceSubflow(func(sf *Subflow) { chain(&sf.builder, fallible) })
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if err := tf.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if dense, none := subflow(false), subflow(true); dense > none+3 {
		t.Fatalf("a subflow whose chain is a dense path allocates %v objects per run, %v without one", dense, none)
	}
	rebuild := func(fallible bool) float64 {
		tf := New(2)
		defer tf.Close()
		iter := func() {
			chain(&tf.builder, fallible)
			if err := tf.Reclaim(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			iter() // fill the free list
		}
		return testing.AllocsPerRun(50, iter)
	}
	if dense, none := rebuild(false), rebuild(true); dense != none {
		t.Fatalf("rebuilding a chain through Reclaim allocates %v objects per build, a fallible chain %v", dense, none)
	}
}

// doneModule is a module that counts its starts and retires within Start.
type doneModule struct{ starts atomic.Int32 }

func (m *doneModule) Start(ctx executor.Context, j Join) {
	m.starts.Add(1)
	j.Done(ctx)
}

// TestFuseDeclinedLinks: a plain task whose successor is a condition-loop
// target, takes a semaphore, has a retry policy, or is a module or a
// subflow does not form a fused link with it, and every body still runs
// exactly as often as the graph says.
func TestFuseDeclinedLinks(t *testing.T) {
	const runs = 3
	cases := []struct {
		name  string
		build func(tf *Taskflow) (succ Task, count func() int32, perRun int32)
	}{
		{"condition-loop-target", func(tf *Taskflow) (Task, func() int32, int32) {
			const trips = 5
			var body atomic.Int32
			i := 0
			loop := tf.Emplace1(func() { body.Add(1); i++ })
			cond := tf.EmplaceCondition(func() int {
				if i < trips {
					return 0
				}
				return 1
			})
			loop.Precede(cond)
			cond.Precede(loop, tf.Emplace1(func() { i = 0 }))
			return loop, body.Load, trips
		}},
		{"semaphore", func(tf *Taskflow) (Task, func() int32, int32) {
			var body atomic.Int32
			sem := NewSemaphore(1)
			s := tf.Emplace1(func() { body.Add(1) }).Acquire(sem).Release(sem)
			return s, body.Load, 1
		}},
		{"retry", func(tf *Taskflow) (Task, func() int32, int32) {
			var body atomic.Int32
			s := tf.EmplaceErr(func() error {
				if body.Add(1)%2 == 1 {
					return errors.New("first attempt fails")
				}
				return nil
			}).Retry(1, time.Microsecond)
			return s, body.Load, 2
		}},
		{"module", func(tf *Taskflow) (Task, func() int32, int32) {
			m := &doneModule{}
			return tf.EmplaceModule(m), m.starts.Load, 1
		}},
		{"subflow", func(tf *Taskflow) (Task, func() int32, int32) {
			var kids atomic.Int32
			s := tf.EmplaceSubflow(func(sf *Subflow) {
				sf.Emplace(func() { kids.Add(1) }, func() { kids.Add(1) })
			})
			return s, kids.Load, 2
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eachFusePool(t, func(t *testing.T, e *executor.Executor) {
				tf := NewShared(e)
				var heads atomic.Int32
				a := tf.Emplace1(func() { heads.Add(1) })
				s, count, perRun := c.build(tf)
				a.Precede(s)
				if a.node.fusable() {
					t.Fatalf("%s successor forms a fused link", c.name)
				}
				for run := int32(1); run <= runs; run++ {
					if err := tf.Run(); err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					if a.node.fused {
						t.Fatalf("run %d compiled a fused link to the %s successor", run, c.name)
					}
					if got := count(); got != run*perRun {
						t.Fatalf("run %d: successor body ran %d times, want %d", run, got, run*perRun)
					}
				}
				if heads.Load() != runs {
					t.Fatalf("head ran %d times, want %d", heads.Load(), runs)
				}
			})
		})
	}
}

// TestFuseStatsAndHistograms: fused links account themselves as any
// execution does — under timed run stats with latency histograms every
// node counts one execution with a nonzero duration, and the histograms
// hold one record per link.
func TestFuseStatsAndHistograms(t *testing.T) {
	const n = 256
	e := executor.New(2, executor.WithLatencyHistograms())
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(true)
	hits := make([]atomic.Int32, n)
	countedChain(tf, hits, func(int) {
		// Let the clock tick inside every body.
		for start := executor.Nanos(); executor.Nanos() == start; {
		}
	})
	for run := uint64(1); run <= 2; run++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		for i, nd := range tf.g.nodes {
			if c, d := nd.execCount, nd.execDurNs; c != 1 || d <= 0 {
				t.Fatalf("run %d: node %d counts %d executions of %d ns, want 1 of more than 0", run, i, c, d)
			}
		}
		if rs, _ := tf.LastRunStats(); rs.Tasks != n || rs.Busy <= 0 {
			t.Fatalf("run %d: %d tasks, busy %v; want %d and more than 0", run, rs.Tasks, rs.Busy, n)
		}
		flows, ok := e.LatencyStats()
		if !ok || len(flows) == 0 || flows[0].Exec.Count != run*n || flows[0].EndToEnd.Count != run*n {
			t.Fatalf("run %d: latency stats %+v, want %d records", run, flows, run*n)
		}
	}
}

// TestFuseFlowCountsEveryLink: a flow counts its executions, so a chain
// bound to one keeps its fused links on the booked branch even on a quiet
// pool — the flow's Executed grows by exactly the chain's length per Run.
func TestFuseFlowCountsEveryLink(t *testing.T) {
	const n = 128
	for _, workers := range fuseWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			e := executor.New(workers)
			defer e.Shutdown()
			f := e.NewFlow("chain", executor.FlowConfig{})
			tf := NewShared(e).SetFlow(f)
			hits := make([]atomic.Int32, n)
			countedChain(tf, hits, func(int) {})
			for run := int32(1); run <= 3; run++ {
				before := f.Stats().Executed
				if err := tf.Run(); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got := f.Stats().Executed - before; got != n {
					t.Fatalf("run %d: flow counts %d executions, want %d", run, got, n)
				}
				checkHits(t, hits, func(int) int32 { return run })
			}
		})
	}
}

// TestQuietTopology: a topology is quiet exactly when its scheduler books
// nothing and no flow counts its executions. Run stats, timed or not, keep
// it quiet; any recorder, a flow or the simulator does not; and toggling
// between runs rebuilds the bit with the run state.
func TestQuietTopology(t *testing.T) {
	quietAfterRun := func(t *testing.T, tf *Taskflow) bool {
		t.Helper()
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		return tf.runTopo.quiet
	}
	chain := func(s executor.Scheduler) *Taskflow {
		tf := NewShared(s)
		countedChain(tf, make([]atomic.Int32, 16), func(int) {})
		return tf
	}
	t.Run("plain", func(t *testing.T) {
		e := executor.New(2)
		defer e.Shutdown()
		tf := chain(e)
		for _, c := range []struct {
			name  string
			setup func()
		}{
			{"bare", func() {}},
			{"stats", func() { tf.CollectRunStats(false) }},
			{"timed-stats", func() { tf.CollectRunStats(true) }},
		} {
			c.setup()
			if !quietAfterRun(t, tf) {
				t.Fatalf("%s: topology on a plain pool is not quiet", c.name)
			}
		}
	})
	recorders := []struct {
		name string
		opt  executor.Option
	}{
		{"metrics", executor.WithMetrics()},
		{"tracing", executor.WithTracing(64)},
		{"flight", executor.WithFlightRecorder(64)},
		{"histograms", executor.WithLatencyHistograms()},
	}
	for _, r := range recorders {
		t.Run(r.name, func(t *testing.T) {
			e := executor.New(2, r.opt)
			defer e.Shutdown()
			if quietAfterRun(t, chain(e)) {
				t.Fatalf("topology on a pool built with %s is quiet", r.name)
			}
		})
	}
	t.Run("sim", func(t *testing.T) {
		if quietAfterRun(t, chain(sim.New(2, sim.WithSeed(1)))) {
			t.Fatal("topology under the simulator is quiet")
		}
	})
	t.Run("toggle", func(t *testing.T) {
		e := executor.New(2)
		defer e.Shutdown()
		f := e.NewFlow("toggle", executor.FlowConfig{})
		tf := chain(e)
		steps := []struct {
			name  string
			setup func()
			want  bool
		}{
			{"bare", func() {}, true},
			{"flow", func() { tf.SetFlow(f) }, false},
			{"flow+stats", func() { tf.CollectRunStats(true) }, false},
			{"unbound", func() { tf.SetFlow(nil) }, true},
			{"rebound", func() { tf.SetFlow(f) }, false},
			{"unbound again", func() { tf.SetFlow(nil) }, true},
		}
		for _, st := range steps {
			st.setup()
			if got := quietAfterRun(t, tf); got != st.want {
				t.Fatalf("%s: quiet = %v, want %v", st.name, got, st.want)
			}
		}
	})
}

// TestFuseQuietTimedStats: on a quiet pool a fused link skips its release,
// not its accounting — under timed run stats every node counts one
// execution with a nonzero duration, run after run — and reads the clock
// once: a link starts at the end stamp of the link before it, so the
// links' durations tile the run and sum to no less than the time from the
// first body's entry to the last body's exit. Two readings per link would
// leave the gap between them out of every link.
func TestFuseQuietTimedStats(t *testing.T) {
	const n = 256
	e := executor.New(2)
	defer e.Shutdown()
	tf := NewShared(e).CollectRunStats(true)
	hits := make([]atomic.Int32, n)
	var entry, exit int64
	countedChain(tf, hits, func(i int) {
		if i == 0 {
			entry = executor.Nanos()
		}
		// Let the clock tick inside every body.
		for start := executor.Nanos(); executor.Nanos() == start; {
		}
		if i == n-1 {
			exit = executor.Nanos()
		}
	})
	for run := int32(1); run <= 2; run++ {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		if !tf.runTopo.quiet {
			t.Fatal("topology on a plain pool is not quiet")
		}
		for i, nd := range tf.g.nodes {
			if c, d := nd.execCount, nd.execDurNs; c != 1 || d <= 0 {
				t.Fatalf("run %d: node %d counts %d executions of %d ns, want 1 of more than 0", run, i, c, d)
			}
		}
		rs, _ := tf.LastRunStats()
		if rs.Tasks != n || rs.Busy <= 0 {
			t.Fatalf("run %d: %d tasks, busy %v; want %d and more than 0", run, rs.Tasks, rs.Busy, n)
		}
		if span := time.Duration(exit - entry); rs.Busy < span {
			t.Fatalf("run %d: links busy %v, less than the %v from the first body's entry to the last body's exit", run, rs.Busy, span)
		}
		checkHits(t, hits, func(int) int32 { return run })
	}
}

// TestFuseStackFlat: a fused run is a loop, not a recursion — the body of
// the 100 000th link runs at the stack depth of the first.
func TestFuseStackFlat(t *testing.T) {
	const n = 100_000
	tf := New(1)
	defer tf.Close()
	var depth [2]int
	depthAt := func() int {
		var pcs [1024]uintptr
		return runtime.Callers(0, pcs[:])
	}
	countedChain(tf, make([]atomic.Int32, n), func(i int) {
		switch i {
		case 0:
			depth[0] = depthAt()
		case n - 1:
			depth[1] = depthAt()
		}
	})
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if depth[0] == 0 || depth[0] != depth[1] {
		t.Fatalf("link 1 ran at depth %d, link %d at %d", depth[0], n, depth[1])
	}
}

// TestFuseFlightShowsBlockedLink: the k-th link of a fused chain on a
// recording pool is a continuation whose start the worker publishes as it
// begins, so a flight snapshot taken while the link is stuck in its body
// shows its start — and the end and release of the link before it — and no
// end of its own.
func TestFuseFlightShowsBlockedLink(t *testing.T) {
	const n, stuck = 32, 21
	e := executor.New(2, executor.WithFlightRecorder(0))
	defer e.Shutdown()
	tf := NewShared(e)
	inside, release := make(chan struct{}), make(chan struct{})
	countedChain(tf, make([]atomic.Int32, n), func(i int) {
		if i == stuck {
			close(inside)
			<-release
		}
	})
	done := make(chan error)
	go func() { done <- tf.Run() }()
	<-inside
	fl, _ := e.FlightSnapshot()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	nodes := tf.g.nodes
	var got [3]int // its starts, its ends, releases of it by the link before
	for _, ev := range fl.Events {
		switch {
		case ev.Kind == executor.EvTaskStart && ev.Meta.ID == nodes[stuck].traceID:
			got[0]++
		case ev.Kind == executor.EvTaskEnd && ev.Meta.ID == nodes[stuck].traceID:
			got[1]++
		case ev.Kind == executor.EvDepRelease && ev.Meta.ID == nodes[stuck-1].traceID && ev.Arg == nodes[stuck].traceID:
			got[2]++
		}
	}
	if got != [3]int{1, 0, 1} {
		t.Fatalf("blocked link %d: %d starts, %d ends, %d releases in the flight window; want 1, 0, 1", stuck, got[0], got[1], got[2])
	}
}
