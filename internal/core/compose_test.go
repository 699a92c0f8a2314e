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

func TestSpawnGraphOnDirtySubflowPanics(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	child := NewShared(tf.Executor())
	child.Emplace1(func() {})
	tf.EmplaceSubflow(func(sf *Subflow) {
		defer func() {
			if recover() == nil {
				t.Error("spawnGraph on dirty subflow did not panic")
			}
		}()
		sf.Emplace1(func() {})
		sf.spawnGraph(child.g)
	})
	tf.WaitForAll()
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
