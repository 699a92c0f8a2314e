package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// editHarness builds one graph for the edit-rule tests. Every task body
// counts itself and checks that each of its strong predecessors finished
// earlier in the same execution of the graph.
type editHarness struct {
	tf     *Taskflow
	tasks  map[string]Task
	preds  map[string][]string
	count  map[string]*atomic.Int32
	done   map[string]*atomic.Int32
	exec   atomic.Int32 // the execution of the graph in progress, from 1
	early  atomic.Int32 // bodies that started before a predecessor finished
	failed atomic.Bool  // set by an edit: fallible bodies fail every other attempt

	// guarded bodies hold themselves running for a while and record how
	// many of them run at once (peak).
	guarded        map[string]bool
	active, peak   atomic.Int32
	sem            *Semaphore
	semStep, semAt int // sem.Value() is semAt + semStep × executions after the edit
	semCap         int32
}

func newEditHarness(tf *Taskflow) *editHarness {
	return &editHarness{
		tf: tf, tasks: map[string]Task{}, preds: map[string][]string{},
		count: map[string]*atomic.Int32{}, done: map[string]*atomic.Int32{},
		guarded: map[string]bool{},
	}
}

// body returns the counted body of the task called name.
func (h *editHarness) body(name string) func() {
	if h.count[name] == nil {
		h.count[name], h.done[name] = new(atomic.Int32), new(atomic.Int32)
	}
	count, done := h.count[name], h.done[name]
	return func() {
		x := h.exec.Load()
		for _, p := range h.preds[name] {
			if h.done[p].Load() != x {
				h.early.Add(1)
			}
		}
		if h.guarded[name] {
			a := h.active.Add(1)
			for p := h.peak.Load(); a > p && !h.peak.CompareAndSwap(p, a); p = h.peak.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			h.active.Add(-1)
		}
		count.Add(1)
		done.Store(x)
	}
}

// fallible is name's body as func() error: it fails every other attempt
// once an edit set h.failed.
func (h *editHarness) fallible(name string) func() error {
	body := h.body(name)
	var attempts atomic.Int32
	return func() error {
		body()
		if h.failed.Load() && attempts.Add(1)%2 == 1 {
			return errors.New("odd attempt fails")
		}
		return nil
	}
}

// task emplaces a counted plain task.
func (h *editHarness) task(name string) {
	h.tasks[name] = h.tf.Emplace1(h.body(name)).Name(name)
}

// chain emplaces counted plain tasks named prefix0..prefix<n-1>, each the
// one predecessor of the next.
func (h *editHarness) chain(prefix string, n int) {
	for i := 0; i < n; i++ {
		h.task(fmt.Sprint(prefix, i))
		if i > 0 {
			h.edge(fmt.Sprint(prefix, i-1), fmt.Sprint(prefix, i))
		}
	}
}

// edge adds the strong edge from→to.
func (h *editHarness) edge(from, to string) {
	h.tasks[from].Precede(h.tasks[to])
	h.preds[to] = append(h.preds[to], from)
}

// subflowChain is a subflow body spawning an n-link chain named
// prefix0..prefix<n-1>.
func (h *editHarness) subflowChain(prefix string, n int) func(*Subflow) {
	bodies := make([]func(), n)
	for i := range bodies {
		name := fmt.Sprint(prefix, i)
		bodies[i] = h.body(name)
		if i > 0 {
			h.preds[name] = []string{fmt.Sprint(prefix, i-1)}
		}
	}
	return func(sf *Subflow) {
		ts := sf.Emplace(bodies...)
		for i := 1; i < n; i++ {
			ts[i-1].Precede(ts[i])
		}
	}
}

type editCase struct {
	name string
	// build wires the graph before the first execution; edit changes it
	// between executions.
	build, edit func(h *editHarness)
	// before and after are each task's bodies per execution of the graph,
	// before and after the edit; every execution after the edit fails with
	// an error wrapping refused, when it is set.
	before, after map[string]int32
	refused       error
}

// counts gives every name n bodies per execution.
func counts(n int32, names ...string) map[string]int32 {
	m := map[string]int32{}
	for _, name := range names {
		m[name] = n
	}
	return m
}

func chainNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprint(prefix, i)
	}
	return names
}

// slowSource emplaces a counted source that holds its worker a moment, so
// that a successor run before it finishes is seen.
func (h *editHarness) slowSource(name string) {
	body := h.body(name)
	h.tasks[name] = h.tf.Emplace1(func() {
		time.Sleep(time.Millisecond)
		body()
	}).Name(name)
}

var editCases = []editCase{
	{
		name:   "emplace",
		build:  func(h *editHarness) { h.chain("a", 2) },
		before: counts(1, "a0", "a1"),
		edit: func(h *editHarness) {
			c, q := h.body("c"), h.body("q")
			h.tasks["e"] = h.tf.EmplaceErr(h.fallible("e"))
			h.tasks["c"] = h.tf.EmplaceCtx(func(context.Context) error { c(); return nil })
			h.tasks["s"] = h.tf.EmplaceSubflow(h.subflowChain("s", 3))
			h.tasks["q"] = h.tf.EmplaceCondition(func() int { q(); return 0 })
			h.tasks["p"] = h.tf.Placeholder()
			h.task("z")
			for _, name := range []string{"e", "c", "s", "q", "p", "z"} {
				h.edge("a1", name)
			}
		},
		after: counts(1, "a0", "a1", "e", "c", "s0", "s1", "s2", "q", "z"),
	},
	{
		name: "precede",
		build: func(h *editHarness) {
			h.slowSource("b")
			h.chain("a", 2)
		},
		before: counts(1, "a0", "a1", "b"),
		edit:   func(h *editHarness) { h.edge("b", "a1") },
		after:  counts(1, "a0", "a1", "b"),
	},
	{
		name: "succeed",
		build: func(h *editHarness) {
			h.slowSource("b")
			h.chain("a", 2)
		},
		before: counts(1, "a0", "a1", "b"),
		edit: func(h *editHarness) {
			h.tasks["a1"].Succeed(h.tasks["b"])
			h.preds["a1"] = append(h.preds["a1"], "b")
		},
		after: counts(1, "a0", "a1", "b"),
	},
	{
		name: "precede-mid-chain",
		build: func(h *editHarness) {
			h.slowSource("b")
			h.chain("k", 64)
		},
		before: counts(1, append(chainNames("k", 64), "b")...),
		edit:   func(h *editHarness) { h.edge("b", "k32") },
		after:  counts(1, append(chainNames("k", 64), "b")...),
	},
	{
		name: "subflow-chain",
		build: func(h *editHarness) {
			h.slowSource("b")
			h.chain("a", 2)
			h.tasks["f"] = h.tf.EmplaceSubflow(h.subflowChain("s", 32))
			h.edge("a1", "f")
		},
		before: counts(1, append(chainNames("s", 32), "a0", "a1", "b")...),
		edit: func(h *editHarness) {
			h.edge("b", "a1")
			h.preds["s0"] = []string{"a1"}
		},
		after: counts(1, append(chainNames("s", 32), "a0", "a1", "b")...),
	},
	{
		name: "composed-chain",
		build: func(h *editHarness) {
			h.slowSource("b")
			h.chain("a", 2)
			inner := NewShared(h.tf.Executor())
			for i := 0; i < 16; i++ {
				name := fmt.Sprint("m", i)
				h.tasks[name] = inner.Emplace1(h.body(name))
				if i > 0 {
					h.edge(fmt.Sprint("m", i-1), name)
				}
			}
			slow := h.body("mb")
			h.tasks["mb"] = inner.Emplace1(func() { time.Sleep(time.Millisecond); slow() })
			h.tasks["c"] = h.tf.Composed(inner)
			h.edge("a1", "c")
		},
		before: counts(1, append(chainNames("m", 16), "a0", "a1", "b", "mb")...),
		edit: func(h *editHarness) {
			// An edge inside the composed graph, which only spawn runs:
			// it compiles the graph's links at every execution.
			h.edge("b", "a1")
			h.edge("mb", "m8")
		},
		after: counts(1, append(chainNames("m", 16), "a0", "a1", "b", "mb")...),
	},
	{
		name:   "acquire",
		build:  func(h *editHarness) { h.chain("a", 3) },
		before: counts(1, "a0", "a1", "a2"),
		edit: func(h *editHarness) {
			h.sem, h.semStep, h.semAt = NewSemaphore(100), -2, 100
			h.tasks["a0"].Acquire(h.sem)
			h.tasks["a1"].Acquire(h.sem)
		},
		after: counts(1, "a0", "a1", "a2"),
	},
	{
		name:   "release",
		build:  func(h *editHarness) { h.chain("a", 3) },
		before: counts(1, "a0", "a1", "a2"),
		edit: func(h *editHarness) {
			h.sem, h.semStep, h.semAt = NewSemaphore(0), 1, 0
			h.tasks["a1"].Release(h.sem)
		},
		after: counts(1, "a0", "a1", "a2"),
	},
	{
		name: "acquire-release-sources",
		build: func(h *editHarness) {
			for i := 0; i < 8; i++ {
				name := fmt.Sprint("x", i)
				h.guarded[name] = true
				h.task(name)
			}
		},
		before: counts(1, chainNames("x", 8)...),
		edit: func(h *editHarness) {
			h.sem, h.semAt, h.semCap = NewSemaphore(1), 1, 1
			for i := 0; i < 8; i++ {
				h.tasks[fmt.Sprint("x", i)].Acquire(h.sem).Release(h.sem)
			}
		},
		after: counts(1, chainNames("x", 8)...),
	},
	{
		name: "retry",
		build: func(h *editHarness) {
			h.chain("a", 3)
			h.tasks["r"] = h.tf.EmplaceErr(h.fallible("r"))
			h.edge("a2", "r")
			h.task("z")
			h.edge("r", "z")
		},
		before: counts(1, "a0", "a1", "a2", "r", "z"),
		edit: func(h *editHarness) {
			h.failed.Store(true)
			h.tasks["r"].Retry(1, 0)
		},
		after: map[string]int32{"a0": 1, "a1": 1, "a2": 1, "r": 2, "z": 1},
	},
	{
		name:   "work",
		build:  func(h *editHarness) { h.chain("a", 3) },
		before: counts(1, "a0", "a1", "a2"),
		edit: func(h *editHarness) {
			h.tasks["a1"].Work(h.body("w"))
			h.preds["w"], h.preds["a2"] = []string{"a0"}, []string{"w"}
		},
		after: counts(1, "a0", "w", "a2"),
	},
	{
		name:   "work-condition",
		build:  func(h *editHarness) { h.chain("a", 3) },
		before: counts(1, "a0", "a1", "a2"),
		edit: func(h *editHarness) {
			body := h.body("q")
			h.preds["q"] = []string{"a1"}
			h.tasks["a2"].WorkCondition(func() int { body(); return 0 })
		},
		after: counts(1, "a0", "a1", "q"),
	},
	{
		name: "join-dense-paths",
		build: func(h *editHarness) {
			h.chain("a", 16)
			h.chain("b", 16)
		},
		before: counts(1, append(chainNames("a", 16), chainNames("b", 16)...)...),
		// b0, a source, becomes a15's one successor: the two dense paths are
		// one, and b0 waits for a15.
		edit:  func(h *editHarness) { h.edge("a15", "b0") },
		after: counts(1, append(chainNames("a", 16), chainNames("b", 16)...)...),
	},
	{
		name:   "composed",
		build:  func(h *editHarness) { h.chain("a", 2) },
		before: counts(1, "a0", "a1"),
		edit: func(h *editHarness) {
			inner := NewShared(h.tf.Executor())
			for i := 0; i < 4; i++ {
				name := fmt.Sprint("m", i)
				h.tasks[name] = inner.Emplace1(h.body(name))
				if i > 0 {
					h.edge(fmt.Sprint("m", i-1), name)
				}
			}
			h.preds["m0"] = []string{"a1"}
			h.tasks["c"] = h.tf.Composed(inner)
			h.tasks["a1"].Precede(h.tasks["c"])
		},
		after: counts(1, "a0", "a1", "m0", "m1", "m2", "m3"),
	},
	{
		name:   "close-cycle",
		build:  func(h *editHarness) { h.chain("a", 3) },
		before: counts(1, "a0", "a1", "a2"),
		// a2→a1 closes a cycle behind the source a0: the graph is refused
		// whole, also as the Composed child of a parent that ran it.
		edit:    func(h *editHarness) { h.edge("a2", "a1") },
		after:   counts(0, "a0", "a1", "a2"),
		refused: ErrCyclic,
	},
}

// TestEditRule: every kind of builder mutation made between two executions
// of a graph is seen by the next — on its own Taskflow's Run, and on a
// graph that is also a Composed child, run by its parent before and after
// the edit. Every body runs exactly as often as the edited graph says,
// after every one of its predecessors, and semaphores hold their bounds and
// their counts.
func TestEditRule(t *testing.T) {
	for _, c := range editCases {
		for _, host := range []string{"plain", "composed"} {
			t.Run(c.name+"/"+host, func(t *testing.T) {
				eachFusePool(t, func(t *testing.T, e *executor.Executor) {
					testEdit(t, e, c, host == "composed")
				})
			})
		}
	}
}

func testEdit(t *testing.T, e *executor.Executor, c editCase, composed bool) {
	tf := NewShared(e)
	h := newEditHarness(tf)
	c.build(h)
	before := []func() error{tf.Run, tf.Run}
	after := []func() error{tf.Run, tf.Run}
	if composed {
		parent := NewShared(e)
		parent.Composed(tf)
		before = []func() error{tf.Run, parent.Run}
		after = []func() error{parent.Run, tf.Run, parent.Run}
	}
	nBefore, nAfter := int32(0), int32(0)
	check := func(step string) {
		t.Helper()
		for name, n := range h.count {
			want := c.before[name]*nBefore + c.after[name]*nAfter
			if got := n.Load(); got != want {
				t.Fatalf("%s: task %s ran %d times, want %d", step, name, got, want)
			}
		}
		if k := h.early.Load(); k > 0 {
			t.Fatalf("%s: %d bodies started before one of their predecessors finished", step, k)
		}
		if h.sem != nil {
			if got, want := h.sem.Value(), h.semAt+h.semStep*int(nAfter); got != want {
				t.Fatalf("%s: semaphore value %d, want %d", step, got, want)
			}
		}
		if p := h.peak.Load(); h.semCap > 0 && p > h.semCap {
			t.Fatalf("%s: %d guarded bodies ran at once, the semaphore allows %d", step, p, h.semCap)
		}
	}
	for i, run := range before {
		h.exec.Add(1)
		if err := run(); err != nil {
			t.Fatalf("execution %d before the edit: %v", i+1, err)
		}
		nBefore++
		check(fmt.Sprintf("execution %d before the edit", i+1))
	}
	c.edit(h)
	h.peak.Store(0)
	for i, run := range after {
		h.exec.Add(1)
		if err := run(); !errors.Is(err, c.refused) {
			t.Fatalf("execution %d after the edit: %v, want %v", i+1, err, c.refused)
		}
		nAfter++
		check(fmt.Sprintf("execution %d after the edit", i+1))
	}
}

// TestEditSemaphoresBetweenRuns: semaphores added to the sources of a graph
// that already ran bound the next run. Eight sources on four workers take
// and return one unit of a one-unit semaphore: no two bodies overlap, and
// the semaphore ends where it started.
func TestEditSemaphoresBetweenRuns(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var active, peak atomic.Int32
	body := func() {
		a := active.Add(1)
		for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
	}
	xs := tf.Emplace(body, body, body, body, body, body, body, body)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	sem := NewSemaphore(1)
	for _, x := range xs {
		x.Acquire(sem).Release(sem)
	}
	peak.Store(0)
	if err := tf.Run(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d bodies ran at once under a one-unit semaphore", p)
	}
	if v := sem.Value(); v != 1 {
		t.Fatalf("semaphore value %d after the run, want 1", v)
	}
}

// TestEditComposedChildAfterParentRun: an edge added to a graph after a
// Composed parent ran it is seen by the graph's own next Run. Child {a, b}
// runs, its parent runs it, then a.Precede(b): the child's next run runs a
// and then b, once each.
func TestEditComposedChildAfterParentRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			e := executor.New(workers)
			defer e.Shutdown()
			child, parent := NewShared(e), NewShared(e)
			var aRuns, bRuns, bEarly atomic.Int32
			var edited atomic.Bool
			a := child.Emplace1(func() { aRuns.Add(1) })
			b := child.Emplace1(func() {
				if bRuns.Add(1) > aRuns.Load() && edited.Load() {
					bEarly.Add(1)
				}
			})
			parent.Composed(child)
			for _, run := range []func() error{child.Run, parent.Run} {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
			a.Precede(b)
			edited.Store(true)
			if err := child.Run(); err != nil {
				t.Fatal(err)
			}
			if aRuns.Load() != 3 || bRuns.Load() != 3 || bEarly.Load() != 0 {
				t.Fatalf("a ran %d times and b %d (%d before a); want 3 and 3 (none before a)",
					aRuns.Load(), bRuns.Load(), bEarly.Load())
			}
		})
	}
}

// TestSetNameBetweenRuns: a rename between two Runs reaches the run state
// the second builds — its trace spans and TaskMeta.Flow carry the new name.
func TestSetNameBetweenRuns(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	tf.Emplace1(func() {})
	for _, name := range []string{"first", "second"} {
		tf.SetName(name)
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		if got := tf.g.nodes[0].Describe().Flow; got != name {
			t.Fatalf("after SetName(%q) and a Run, a task's Flow reads %q", name, got)
		}
	}
}
