package core

// Tests of the completion protocol's two economies (see topology): net
// accounting of the outstanding-execution count, and join counters that are
// re-armed by the release that consumes them instead of by a sweep before
// every run. Both are invisible when they work; what these tests watch is
// what would break if they did not — a body that runs twice or not at all,
// a Run that returns with work outstanding, a counter left partial where
// the next run trusts it.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/sim"
)

// rerunCase is one graph under re-run: hits counts body invocations (plain
// ints — the scheduler orders every body before Run returns and two
// executions of one node against each other, so a race here is a finding),
// want gives run i's expected increments and whether it must fail, and run
// performs it (nil: tf.Run).
type rerunCase struct {
	hits []int
	want func(i int) (delta []int, fails bool)
	run  func(i int) error
}

// hit returns a body that counts into c.hits[i].
func (c *rerunCase) hit(i int) func() { return func() { c.hits[i]++ } }

// once expects every body to run exactly once in every run.
func (c *rerunCase) once() {
	ones := make([]int, len(c.hits))
	for i := range ones {
		ones[i] = 1
	}
	c.want = func(int) ([]int, bool) { return ones, false }
}

var rerunCases = []struct {
	name  string
	build func(tf *Taskflow) *rerunCase
}{
	{"dag", func(tf *Taskflow) *rerunCase {
		const n = 200
		c := &rerunCase{hits: make([]int, n)}
		d := graphgen.Random(n, graphgen.Config{Seed: 7})
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = tf.Emplace1(c.hit(i))
		}
		for u := 0; u < n; u++ {
			d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
		}
		c.once()
		return c
	}},
	{"fanout", func(tf *Taskflow) *rerunCase {
		// Wider than releaseChunk: the release goes out in chunks.
		const width = 512
		c := &rerunCase{hits: make([]int, width+2)}
		src, sink := tf.Emplace1(c.hit(width)), tf.Emplace1(c.hit(width+1))
		for i := 0; i < width; i++ {
			src.Precede(tf.Emplace1(c.hit(i)).Precede(sink))
		}
		c.once()
		return c
	}},
	{"untaken-branch", func(tf *Taskflow) *rerunCase {
		// cond always takes yes. join waits for always and for no, so every
		// run leaves its counter at one of two: trusted, it would release
		// join on the second run.
		c := &rerunCase{hits: make([]int, 6)}
		src, always := tf.Emplace1(c.hit(0)), tf.Emplace1(c.hit(1))
		cond := tf.EmplaceCondition(func() int { c.hits[2]++; return 0 })
		yes, no, join := tf.Emplace1(c.hit(3)), tf.Emplace1(c.hit(4)), tf.Emplace1(c.hit(5))
		src.Precede(cond, always)
		cond.Precede(yes, no)
		always.Precede(join)
		no.Precede(join)
		c.want = func(int) ([]int, bool) { return []int{1, 1, 1, 1, 0, 0}, false }
		return c
	}},
	{"loop", func(tf *Taskflow) *rerunCase {
		c := &rerunCase{hits: make([]int, 4)}
		iter := 0
		first := tf.Emplace1(func() { c.hits[0]++; iter = 0 })
		body := tf.Emplace1(c.hit(1))
		cond := tf.EmplaceCondition(func() int {
			c.hits[2]++
			if iter++; iter < 3 {
				return 0
			}
			return 1
		})
		exit := tf.Emplace1(c.hit(3))
		first.Precede(body)
		body.Precede(cond)
		cond.Precede(body, exit)
		c.want = func(int) ([]int, bool) { return []int{1, 3, 3, 1}, false }
		return c
	}},
	{"subflow-joined", func(tf *Taskflow) *rerunCase { return subflowCase(tf, false) }},
	{"subflow-detached", func(tf *Taskflow) *rerunCase { return subflowCase(tf, true) }},
	{"retry", func(tf *Taskflow) *rerunCase {
		// flaky fails its first attempt of every run and, every fifth run,
		// its retries too: that run fails, after is skipped, and the next
		// run must still find the chain whole.
		c := &rerunCase{hits: make([]int, 3)}
		attempt, doomed := 0, false
		before := tf.Emplace1(func() { c.hits[0]++; attempt = 0 })
		flaky := tf.EmplaceErr(func() error {
			c.hits[1]++
			if attempt++; attempt == 1 || doomed {
				return errors.New("flaky")
			}
			return nil
		}).Retry(2, 0)
		after := tf.Emplace1(c.hit(2))
		before.Precede(flaky)
		flaky.Precede(after)
		c.run = func(i int) error { doomed = i%5 == 4; return tf.Run() }
		c.want = func(i int) ([]int, bool) {
			if i%5 == 4 {
				return []int{1, 3, 0}, true
			}
			return []int{1, 2, 1}, false
		}
		return c
	}},
	{"cancel", func(tf *Taskflow) *rerunCase {
		// Every third run is cancelled from inside its second task, which
		// waits for the cancellation to land so the skip of the rest is
		// certain; the drained structure must serve the next run.
		c := &rerunCase{hits: make([]int, 4)}
		var cancel context.CancelFunc
		a := tf.Emplace1(c.hit(0))
		b := tf.Emplace1(func() {
			c.hits[1]++
			if cancel != nil {
				cancel()
				for !tf.runTopo.cancelled.Load() {
					time.Sleep(10 * time.Microsecond)
				}
			}
		})
		x, y := tf.Emplace1(c.hit(2)), tf.Emplace1(c.hit(3))
		a.Precede(b)
		b.Precede(x, y)
		c.run = func(i int) error {
			if i%3 != 2 {
				cancel = nil
				return tf.Run()
			}
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			return tf.RunContext(ctx)
		}
		c.want = func(i int) ([]int, bool) {
			if i%3 == 2 {
				return []int{1, 1, 0, 0}, true
			}
			return []int{1, 1, 1, 1}, false
		}
		return c
	}},
	{"semaphore", func(tf *Taskflow) *rerunCase {
		// Eight tasks, a source among them, share one unit; inside counts
		// holders with a plain int, so two at once is a race report.
		const width = 8
		c := &rerunCase{hits: make([]int, width+2)}
		sem := NewSemaphore(1)
		inside := 0
		guarded := func(i int) Task {
			return tf.Emplace1(func() {
				c.hits[i]++
				if inside++; inside != 1 {
					panic("semaphore admitted two holders")
				}
				inside--
			}).Acquire(sem).Release(sem)
		}
		src, sink := tf.Emplace1(c.hit(width)), tf.Emplace1(c.hit(width+1))
		guarded(0).Precede(sink)
		for i := 1; i < width; i++ {
			src.Precede(guarded(i).Precede(sink))
		}
		c.once()
		return c
	}},
	{"edge-added", func(tf *Taskflow) *rerunCase {
		// After ten runs b gains a second dependency. Its counter stands
		// armed for one; the new edge must invalidate that, or b runs
		// beside late instead of after it (a race on v).
		c := &rerunCase{hits: make([]int, 3)}
		v, linked := 0, false
		a := tf.Emplace1(c.hit(0))
		late := tf.Emplace1(func() { c.hits[1]++; v = c.hits[1] })
		b := tf.Emplace1(func() {
			c.hits[2]++
			if linked && v != c.hits[2] {
				panic("b ran before the dependency it was given")
			}
		})
		a.Precede(b)
		c.run = func(i int) error {
			if i == 10 {
				late.Precede(b)
				linked = true
			}
			return tf.Run()
		}
		c.once()
		return c
	}},
	{"composed", func(tf *Taskflow) *rerunCase {
		// tf is a child graph run on its own and, every third run, inside a
		// parent as a module task: the parent leaves the child's nodes
		// bound to its topology, and the child's next own run must notice.
		c := &rerunCase{hits: make([]int, 4)}
		x, y := tf.Emplace1(c.hit(0)), tf.Emplace1(c.hit(1))
		x.Precede(y)
		parent := NewShared(tf.exec)
		parent.Emplace1(c.hit(2)).Precede(parent.Composed(tf).Precede(parent.Emplace1(c.hit(3))))
		c.run = func(i int) error {
			if i%3 == 2 {
				return parent.Run()
			}
			return tf.Run()
		}
		c.want = func(i int) ([]int, bool) {
			if i%3 == 2 {
				return []int{1, 1, 1, 1}, false
			}
			return []int{1, 1, 0, 0}, false
		}
		return c
	}},
}

// subflowCase is before -> spawner -> after, the spawner building a small
// diamond at run time; joined, after must see the whole diamond done.
func subflowCase(tf *Taskflow, detach bool) *rerunCase {
	c := &rerunCase{hits: make([]int, 7)}
	done := 0 // written by the diamond's sink
	before := tf.Emplace1(c.hit(0))
	spawner := tf.EmplaceSubflow(func(sf *Subflow) {
		c.hits[1]++
		top, l, r := sf.Emplace1(c.hit(2)), sf.Emplace1(c.hit(3)), sf.Emplace1(c.hit(4))
		bottom := sf.Emplace1(func() { c.hits[5]++; done++ })
		top.Precede(l, r)
		bottom.Succeed(l, r)
		if detach {
			sf.Detach()
		}
	})
	after := tf.Emplace1(func() {
		c.hits[6]++
		if !detach && done != c.hits[6] {
			panic("joined subflow's successor ran before the subflow finished")
		}
	})
	before.Precede(spawner)
	spawner.Precede(after)
	c.once()
	return c
}

func TestRerunLeavesCountersArmed(t *testing.T) {
	runs := 50
	if testing.Short() {
		runs = 10
	}
	for _, rc := range rerunCases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", rc.name, workers), func(t *testing.T) {
				e := executor.New(workers)
				defer e.Shutdown()
				tf := NewShared(e)
				c := rc.build(tf)
				want := make([]int, len(c.hits))
				elided := 0
				for i := 0; i < runs; i++ {
					var err error
					if c.run != nil {
						err = c.run(i)
					} else {
						err = tf.Run()
					}
					delta, fails := c.want(i)
					if fails != (err != nil) {
						t.Fatalf("run %d: error %v, want failure %v", i, err, fails)
					}
					for b := range want {
						want[b] += delta[b]
					}
					if !reflect.DeepEqual(c.hits, want) {
						t.Fatalf("run %d: body counts %v, want %v", i, c.hits, want)
					}
					if perr := e.PanicError(); perr != nil {
						t.Fatalf("run %d: %v", i, perr)
					}
					rt := tf.runTopo
					if tf.runStale() || rt.mustSweep() {
						continue
					}
					// The next run will trust what this one left behind.
					elided++
					for _, n := range tf.g.nodes {
						if got := n.join.Load(); got != int32(n.numDependents) || n.g.topo != rt || n.parent != nil {
							t.Fatalf("run %d: node %d left join=%d of %d, topo match %v, parent %v; the next run does not sweep",
								i, n.idx, got, n.numDependents, n.g.topo == rt, n.parent)
						}
					}
				}
				t.Logf("%d of %d runs left the sweep to be skipped", elided, runs)
			})
		}
	}
}

// earlyProbe counts bodies that started while their topology's completion
// token was already in the done channel: finish fired with work outstanding.
type earlyProbe struct {
	tf    *Taskflow
	early int32
	hits  []int
}

func (p *earlyProbe) body(i int) func() {
	return func() {
		if len(p.tf.runTopo.done) != 0 {
			p.early++ // a race here is two bodies seeing it: also a failure
		}
		p.hits[i]++
	}
}

// check verifies run i of the probe's graph after Run returned: every body
// ran i+1 times (none outstanding, none twice), none started after finish,
// and no second token is waiting to end the next run before it began.
func (p *earlyProbe) check(t *testing.T, i int, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("run %d: %v", i, err)
	}
	if p.early != 0 {
		t.Fatalf("run %d: %d bodies started after finish fired", i, p.early)
	}
	for b, h := range p.hits {
		if h != i+1 {
			t.Fatalf("run %d: Run returned with body %d at %d executions, want %d", i, b, h, i+1)
		}
	}
	if n := len(p.tf.runTopo.done); n != 0 {
		t.Fatalf("run %d: %d completion tokens left after Run returned: finish fired more than once", i, n)
	}
}

// probeFanout is 1 -> width -> 1 and probeDAG a random DAG; between them the
// releaser of many and the releaser of none both occur on every worker.
func probeFanout(tf *Taskflow, width int) *earlyProbe {
	p := &earlyProbe{tf: tf, hits: make([]int, width+2)}
	src, sink := tf.Emplace1(p.body(width)), tf.Emplace1(p.body(width+1))
	for i := 0; i < width; i++ {
		src.Precede(tf.Emplace1(p.body(i)).Precede(sink))
	}
	return p
}

func probeDAG(tf *Taskflow, n int, seed int64) *earlyProbe {
	p := &earlyProbe{tf: tf, hits: make([]int, n)}
	d := graphgen.Random(n, graphgen.Config{Seed: seed})
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = tf.Emplace1(p.body(i))
	}
	for u := 0; u < n; u++ {
		d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
	}
	return p
}

// TestPendingNeverZeroEarly hammers the ordering the net accounting rests
// on: a released successor that another worker steals, runs and retires —
// releasing nothing — before its releaser has finished publishing must not
// find pending at zero. On the real pool the window is a few instructions,
// hence the repetition; under simulation the seeds place and pop every
// released task in every order, the stolen one first among them.
func TestPendingNeverZeroEarly(t *testing.T) {
	runs, seeds := 2000, int64(300)
	if testing.Short() {
		runs, seeds = 200, 30
	}
	graphs := []struct {
		name  string
		build func(tf *Taskflow) *earlyProbe
	}{
		{"fanout", func(tf *Taskflow) *earlyProbe { return probeFanout(tf, 3*releaseChunk+5) }},
		{"traversal", func(tf *Taskflow) *earlyProbe { return probeDAG(tf, 120, 3) }},
	}
	for _, g := range graphs {
		t.Run(g.name+"/pool", func(t *testing.T) {
			e := executor.New(4)
			defer e.Shutdown()
			tf := NewShared(e)
			p := g.build(tf)
			for i := 0; i < runs; i++ {
				p.check(t, i, tf.Run())
			}
		})
		t.Run(g.name+"/sim", func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				s := sim.New(4, sim.WithSeed(seed))
				tf := NewShared(s)
				p := g.build(tf)
				for i := 0; i < 3; i++ {
					p.check(t, i, tf.Run())
				}
				if err := s.Failure(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := s.Stats().Check(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestTopologyHotColdLayout pins the three-group layout the topology
// comment describes. Heap objects of this size are 8-byte aligned, not
// line aligned, so "its own line" means no other field within a line's
// length of pending on either side.
func TestTopologyHotColdLayout(t *testing.T) {
	const line = 64
	var topo topology
	pending := unsafe.Offsetof(topo.pending)
	typ := reflect.TypeOf(&topo).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "pending" {
			continue
		}
		end := f.Offset + f.Type.Size()
		if end > pending-(line-8) && f.Offset < pending+line {
			t.Errorf("field %s [%d,%d) can share a cache line with pending at %d", f.Name, f.Offset, end, pending)
		}
	}
	// What runNode and finishNode read on every execution sits together
	// ahead of pending, within two lines.
	hot := map[string][2]uintptr{
		"cancelled": {unsafe.Offsetof(topo.cancelled), unsafe.Sizeof(topo.cancelled)},
		"lat":       {unsafe.Offsetof(topo.lat), unsafe.Sizeof(topo.lat)},
		"timed":     {unsafe.Offsetof(topo.timed), unsafe.Sizeof(topo.timed)},
		"quiet":     {unsafe.Offsetof(topo.quiet), unsafe.Sizeof(topo.quiet)},
		"stats":     {unsafe.Offsetof(topo.stats), unsafe.Sizeof(topo.stats)},
		"flow":      {unsafe.Offsetof(topo.flow), unsafe.Sizeof(topo.flow)},
		"ready":     {unsafe.Offsetof(topo.ready), unsafe.Sizeof(topo.ready)},
		"graph":     {unsafe.Offsetof(topo.graph), unsafe.Sizeof(topo.graph)},
		"exec":      {unsafe.Offsetof(topo.exec), unsafe.Sizeof(topo.exec)},
	}
	var span uintptr
	for name, f := range hot {
		if f[0] >= pending {
			t.Errorf("hot field %s at %d sits after pending at %d", name, f[0], pending)
		}
		if end := f[0] + f[1]; end > span {
			span = end
		}
	}
	if span > 2*line {
		t.Errorf("hot fields span %d bytes from the start of the struct, want at most %d", span, 2*line)
	}
}
