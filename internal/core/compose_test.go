package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

func TestComposedRunsChildGraph(t *testing.T) {
	tf := New(4)
	defer tf.Close()

	var n atomic.Int64
	child := NewShared(tf.Executor()).SetName("child")
	cs := child.Emplace(
		func() { n.Add(1) },
		func() { n.Add(10) },
		func() { n.Add(100) },
	)
	cs[0].Precede(cs[1])
	cs[1].Precede(cs[2])

	tr := newTracer()
	before := tf.Emplace1(tr.hit("before"))
	module := tf.Composed(child)
	after := tf.Emplace1(func() {
		tr.hit("after")()
		if n.Load() != 111 {
			t.Errorf("module completed with n = %d, want 111", n.Load())
		}
	})
	before.Precede(module)
	module.Precede(after)

	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 111 {
		t.Fatalf("child graph incomplete: n = %d", n.Load())
	}
	tr.before(t, "before", "after")
}

func TestComposedModuleName(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	child := NewShared(tf.Executor()).SetName("stage1")
	child.Emplace1(func() {})
	m := tf.Composed(child)
	if m.NameOf() != "stage1" {
		t.Fatalf("module name = %q, want stage1", m.NameOf())
	}
	anon := NewShared(tf.Executor())
	anon.Emplace1(func() {})
	tf2 := New(1)
	defer tf2.Close()
	if got := tf2.Composed(anon).NameOf(); got != "module" {
		t.Fatalf("anonymous module name = %q", got)
	}
	tf.WaitForAll()
	tf2.WaitForAll()
}

func TestComposedInsideSubflow(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var ran atomic.Bool
	child := NewShared(tf.Executor())
	child.Emplace1(func() { ran.Store(true) })
	tf.EmplaceSubflow(func(sf *Subflow) {
		sf.Composed(child)
	})
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("child composed inside subflow did not run")
	}
}

func TestComposedEmptyChild(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	child := NewShared(tf.Executor())
	tr := newTracer()
	m := tf.Composed(child)
	end := tf.Emplace1(tr.hit("end"))
	m.Precede(end)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.pos["end"]; !ok {
		t.Fatal("successor of empty module did not run")
	}
}

func TestComposedSequentialReuse(t *testing.T) {
	// The same child may be composed into successive topologies as long
	// as they do not overlap in time.
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	child := NewShared(tf.Executor())
	child.Emplace1(func() { n.Add(1) })
	for round := 0; round < 5; round++ {
		tf.Composed(child)
		if err := tf.WaitForAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n.Load() != 5 {
		t.Fatalf("child ran %d times over 5 rounds", n.Load())
	}
}

func TestComposedChildWithInternalParallelism(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var sum atomic.Int64
	child := NewShared(tf.Executor())
	items := make([]int64, 500)
	for i := range items {
		items[i] = 1
	}
	ParallelFor(child, items, func(v int64) { sum.Add(v) }, 0)
	tf.Composed(child)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 500 {
		t.Fatalf("composed ParallelFor summed %d, want 500", sum.Load())
	}
}

// A taskflow composed into itself would respawn its own graph, module task
// included, forever: the builder refuses it, and a subflow refuses the graph
// of the topology it runs in with a task error.
func TestComposedIntoItself(t *testing.T) {
	t.Run("Taskflow", func(t *testing.T) {
		tf := New(2)
		defer tf.Close()
		tf.Emplace1(func() {})
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "into itself") {
				t.Fatalf("tf.Composed(tf) recovered %v, want a panic naming it", r)
			}
		}()
		tf.Composed(tf)
	})
	t.Run("Subflow", func(t *testing.T) {
		tf := New(2)
		var spawns atomic.Int32
		tf.EmplaceSubflow(func(sf *Subflow) {
			spawns.Add(1)
			sf.Composed(tf)
		})
		done := make(chan error, 1)
		go func() { done <- tf.Run() }()
		var err error
		select {
		case err = <-done:
			tf.Close()
		case <-time.After(5 * time.Second):
			// Closing would wait on workers that never go idle.
			t.Fatalf("Run still spinning after 5s: the subflow ran %d times", spawns.Load())
		}
		if err == nil || !strings.Contains(err.Error(), "own running topology") {
			t.Fatalf("Run = %v, want the refusal as a task error", err)
		}
		if got := spawns.Load(); got != 1 {
			t.Fatalf("subflow body ran %d times, want 1", got)
		}
	})
}

// TestRunComposedZeroAlloc: a Composed task spawns its child's graph in
// place, so re-running the parent allocates nothing.
func TestRunComposedZeroAlloc(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var n atomic.Int64
	child := NewShared(tf.Executor())
	child.Emplace1(func() { n.Add(1) })
	tf.Composed(child)
	if err := tf.Run(); err != nil { // build run state outside measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run of a composed child allocates %v objects/run, want 0", allocs)
	}
	if got := n.Load(); got != 102 {
		t.Fatalf("child ran %d times in 102 runs", got)
	}
}

// runWithin runs tf, failing the test if it has not returned after 5s.
func runWithin(t *testing.T, tf *Taskflow) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tf.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		// Closing would wait on workers that never go idle.
		t.Fatal("Run still going after 5s")
		return nil
	}
}

// A composition already in flight fails the composing task with
// ErrComposedInUse instead of re-arming join counters that are in use.
func TestComposedInUse(t *testing.T) {
	t.Run("Indirect", func(t *testing.T) {
		// X composes A, A composes B, B composes A.
		x := New(2)
		a, b := NewShared(x.Executor()), NewShared(x.Executor())
		var ran atomic.Int32
		a.Emplace1(func() { ran.Add(1) }).Precede(a.Composed(b))
		b.Composed(a)
		x.Composed(a)
		err := runWithin(t, x)
		x.Close()
		if !errors.Is(err, ErrComposedInUse) {
			t.Fatalf("Run = %v, want ErrComposedInUse", err)
		}
		if got := ran.Load(); got != 1 {
			t.Fatalf("A's task ran %d times, want 1", got)
		}
	})
	t.Run("Concurrent", func(t *testing.T) {
		// The second Composed(c) runs while c's body blocks under the
		// first; the task after it releases that body.
		tf := New(2)
		c := NewShared(tf.Executor())
		started, release := make(chan struct{}), make(chan struct{})
		var ran atomic.Int32
		c.Emplace1(func() {
			ran.Add(1)
			close(started)
			<-release
		})
		var after atomic.Bool
		first := tf.Composed(c)
		second := tf.Composed(c)
		tf.Emplace1(func() { <-started }).Precede(second)
		second.Precede(tf.Emplace1(func() { close(release) }))
		first.Precede(tf.Emplace1(func() { after.Store(true) }))
		err := runWithin(t, tf)
		tf.Close()
		if !errors.Is(err, ErrComposedInUse) {
			t.Fatalf("Run = %v, want ErrComposedInUse", err)
		}
		if got := ran.Load(); got != 1 || !after.Load() {
			t.Fatalf("c's body ran %d times, want 1; first's successor ran: %v", got, after.Load())
		}
	})
}

// fanModule starts n executions of its own, on whichever workers take them;
// fail, when set, fails the module's topology instead.
type fanModule struct {
	n    int
	fail error
	ran  atomic.Int64
}

func (m *fanModule) Start(ctx executor.Context, j Join) {
	if m.fail != nil {
		j.Fail(m.fail)
		j.Done(ctx)
		return
	}
	j.Add(m.n)
	for i := 0; i < m.n; i++ {
		ctx.Submit(executor.NewTask(func(ctx executor.Context) {
			m.ran.Add(1)
			j.Done(ctx)
		}))
	}
	j.Done(ctx) // Start's own unit
}

// TestModuleTaskJoinsItsExecutions: a module task completes when the last
// execution it counted retires — its successor sees all of them, run after
// run — a module's failure is its topology's, and Work turns a module task
// into a plain one.
func TestModuleTaskJoinsItsExecutions(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		tf := New(w)
		m := &fanModule{n: 64}
		seen := int64(-1)
		mod := tf.EmplaceModule(m)
		if mod.IsPlaceholder() {
			t.Fatal("a module task reports no work")
		}
		mod.Precede(tf.Emplace1(func() { seen = m.ran.Load() }))
		for run := 0; run < 3; run++ {
			m.ran.Store(0)
			if err := tf.Run(); err != nil || seen != int64(m.n) {
				t.Fatalf("W=%d run %d: Run = %v, successor saw %d of %d executions", w, run, err, seen, m.n)
			}
		}

		boom := errors.New("boom")
		m.fail, seen = boom, -1
		if err := tf.Run(); !errors.Is(err, boom) || seen != -1 {
			t.Fatalf("W=%d: failing module: Run = %v, successor ran: %v", w, err, seen != -1)
		}

		mod.Work(func() {})
		m.ran.Store(0)
		if err := tf.Run(); err != nil || seen != 0 {
			t.Fatalf("W=%d: after Work: Run = %v, successor saw %d", w, err, seen)
		}
		tf.Close()
	}
}
