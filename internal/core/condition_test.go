package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestConditionSelectsBranch(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var thenRan, elseRan atomic.Bool
	init := tf.Emplace1(func() {})
	cond := tf.EmplaceCondition(func() int { return 1 }) // take branch 1
	thenT := tf.Emplace1(func() { thenRan.Store(true) })
	elseT := tf.Emplace1(func() { elseRan.Store(true) })
	init.Precede(cond)
	cond.Precede(thenT, elseT) // branch 0 = then, branch 1 = else
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if thenRan.Load() {
		t.Fatal("branch 0 ran although condition returned 1")
	}
	if !elseRan.Load() {
		t.Fatal("branch 1 did not run")
	}
}

func TestConditionOutOfRangeSignalsNothing(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var ran atomic.Bool
	cond := tf.EmplaceCondition(func() int { return 7 })
	next := tf.Emplace1(func() { ran.Store(true) })
	cond.Precede(next)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("out-of-range branch ran")
	}
}

func TestConditionLoop(t *testing.T) {
	// The canonical do-while: body -> cond; cond(0) -> body (loop),
	// cond(1) -> done.
	tf := New(4)
	defer tf.Close()
	var iterations atomic.Int64
	var doneRan atomic.Bool
	init := tf.Emplace1(func() {}).Name("init")
	body := tf.Emplace1(func() { iterations.Add(1) }).Name("body")
	cond := tf.EmplaceCondition(func() int {
		if iterations.Load() < 10 {
			return 0
		}
		return 1
	}).Name("cond")
	done := tf.Emplace1(func() { doneRan.Store(true) }).Name("done")
	init.Precede(body)
	body.Precede(cond)
	cond.Precede(body, done)
	if err := tf.Validate(); err != nil {
		t.Fatalf("Validate rejected a legal condition loop: %v", err)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if got := iterations.Load(); got != 10 {
		t.Fatalf("loop body ran %d times, want 10", got)
	}
	if !doneRan.Load() {
		t.Fatal("loop exit task did not run")
	}
}

func TestConditionLoopWithStrongChainInBody(t *testing.T) {
	// Loop body is a chain b1 -> b2: the strong join counter of b2 must
	// re-arm on every iteration.
	tf := New(4)
	defer tf.Close()
	var b1n, b2n atomic.Int64
	init := tf.Emplace1(func() {})
	b1 := tf.Emplace1(func() { b1n.Add(1) })
	b2 := tf.Emplace1(func() { b2n.Add(1) })
	cond := tf.EmplaceCondition(func() int {
		if b2n.Load() < 5 {
			return 0
		}
		return 1
	})
	exit := tf.Emplace1(func() {})
	init.Precede(b1)
	b1.Precede(b2)
	b2.Precede(cond)
	cond.Precede(b1, exit)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if b1n.Load() != 5 || b2n.Load() != 5 {
		t.Fatalf("body counts = (%d, %d), want (5, 5)", b1n.Load(), b2n.Load())
	}
}

func TestConditionSwitchThreeWays(t *testing.T) {
	for want := 0; want < 3; want++ {
		want := want
		tf := New(2)
		var ran [3]atomic.Bool
		cond := tf.EmplaceCondition(func() int { return want })
		for i := 0; i < 3; i++ {
			i := i
			cond.Precede(tf.Emplace1(func() { ran[i].Store(true) }))
		}
		if err := tf.WaitForAll(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if ran[i].Load() != (i == want) {
				t.Fatalf("branch %d ran=%v, want %v", i, ran[i].Load(), i == want)
			}
		}
		tf.Close()
	}
}

func TestConditionCascade(t *testing.T) {
	// cond1 -> cond2 -> task: conditions chain through weak edges.
	tf := New(2)
	defer tf.Close()
	var hits atomic.Int64
	c1 := tf.EmplaceCondition(func() int { return 0 })
	c2 := tf.EmplaceCondition(func() int { return 0 })
	end := tf.Emplace1(func() { hits.Add(1) })
	c1.Precede(c2)
	c2.Precede(end)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 {
		t.Fatalf("end ran %d times, want 1", hits.Load())
	}
}

func TestConditionInsideSubflow(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	var iterations atomic.Int64
	var after atomic.Bool
	parent := tf.EmplaceSubflow(func(sf *Subflow) {
		init := sf.Emplace1(func() {})
		body := sf.Emplace1(func() { iterations.Add(1) })
		cond := sf.EmplaceCondition(func() int {
			if iterations.Load() < 4 {
				return 0
			}
			return 1
		})
		exit := sf.Emplace1(func() {})
		init.Precede(body)
		body.Precede(cond)
		cond.Precede(body, exit)
	})
	post := tf.Emplace1(func() { after.Store(true) })
	parent.Precede(post)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if iterations.Load() != 4 {
		t.Fatalf("subflow loop ran %d times, want 4", iterations.Load())
	}
	if !after.Load() {
		t.Fatal("joined subflow with condition loop did not release parent successor")
	}
}

func TestConditionPanicTerminatesBranch(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var ran atomic.Bool
	cond := tf.EmplaceCondition(func() int { panic("cond exploded") })
	next := tf.Emplace1(func() { ran.Store(true) })
	cond.Precede(next)
	err := tf.WaitForAll()
	if err == nil {
		t.Fatal("panicking condition produced no error")
	}
	if ran.Load() {
		t.Fatal("successor of panicking condition ran")
	}
}

func TestConditionMixedWithStrongJoin(t *testing.T) {
	// D has one strong pred (B) and one weak pred (cond): signalling
	// either path must run D; here the condition picks D directly.
	tf := New(2)
	defer tf.Close()
	var dRuns atomic.Int64
	a := tf.Emplace1(func() {})
	cond := tf.EmplaceCondition(func() int { return 0 })
	b := tf.Emplace1(func() {})
	d := tf.Emplace1(func() { dRuns.Add(1) })
	a.Precede(cond)
	a.Precede(b)
	cond.Precede(d)
	b.Precede(d)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	// D has numDependents 1 (from B) and one weak pred: it runs once when
	// B finishes and once when the condition signals it.
	if got := dRuns.Load(); got != 2 {
		t.Fatalf("D ran %d times, want 2 (one strong, one weak signal)", got)
	}
}

func TestWorkConditionOnPlaceholder(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	var ran atomic.Bool
	p := tf.Placeholder()
	if p.node.isCondition() {
		t.Fatal("placeholder is condition")
	}
	exit := tf.Emplace1(func() { ran.Store(true) })
	p.WorkCondition(func() int { return 0 })
	if !p.node.isCondition() {
		t.Fatal("WorkCondition did not mark the task")
	}
	p.Precede(exit)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("condition branch did not run")
	}
}

func TestWorkConditionAfterWiringPanics(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	a := tf.Emplace1(func() {})
	b := tf.Emplace1(func() {})
	a.Precede(b)
	defer func() {
		tf.g = &graph{} // do not dispatch the half-mutated graph
		if recover() == nil {
			t.Fatal("WorkCondition after wiring did not panic")
		}
	}()
	a.WorkCondition(func() int { return 0 })
}

func TestWorkAfterConditionWiringPanics(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	c := tf.EmplaceCondition(func() int { return 0 })
	b := tf.Emplace1(func() {})
	c.Precede(b)
	defer func() {
		tf.g = &graph{}
		if recover() == nil {
			t.Fatal("Work on wired condition task did not panic")
		}
	}()
	c.Work(func() {})
}

func TestConditionDumpDashedEdges(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	cond := tf.EmplaceCondition(func() int { return 0 }).Name("cond")
	a := tf.Emplace1(func() {}).Name("a")
	b := tf.Emplace1(func() {}).Name("b")
	cond.Precede(a, b)
	var sb strings.Builder
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"cond" -> "a" [style=dashed label="0"];`) {
		t.Fatalf("weak edge 0 not dashed:\n%s", out)
	}
	if !strings.Contains(out, `"cond" -> "b" [style=dashed label="1"];`) {
		t.Fatalf("weak edge 1 not dashed:\n%s", out)
	}
	tf.g = &graph{} // don't run the dangling graph
}

func TestLongRunningLoopManyIterations(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	const target = 5000
	var n atomic.Int64
	init := tf.Emplace1(func() {})
	body := tf.Emplace1(func() { n.Add(1) })
	cond := tf.EmplaceCondition(func() int {
		if n.Load() < target {
			return 0
		}
		return 1
	})
	exit := tf.Emplace1(func() {})
	init.Precede(body)
	body.Precede(cond)
	cond.Precede(body, exit)
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != target {
		t.Fatalf("loop ran %d times, want %d", n.Load(), target)
	}
}

func TestNestedConditionLoops(t *testing.T) {
	// Outer loop runs 3 times; each iteration runs an inner loop 4 times.
	tf := New(4)
	defer tf.Close()
	var inner, outer atomic.Int64
	var innerThisRound atomic.Int64

	// As in canonical condition-task patterns, the loop nest starts from
	// an init task — every other node has in-edges.
	init := tf.Emplace1(func() {})
	outerBody := tf.Emplace1(func() { innerThisRound.Store(0) })
	innerBody := tf.Emplace1(func() { inner.Add(1); innerThisRound.Add(1) })
	innerCond := tf.EmplaceCondition(func() int {
		if innerThisRound.Load() < 4 {
			return 0
		}
		return 1
	})
	outerCond := tf.EmplaceCondition(func() int {
		outer.Add(1)
		if outer.Load() < 3 {
			return 0
		}
		return 1
	})
	exit := tf.Emplace1(func() {})

	init.Precede(outerBody)
	outerBody.Precede(innerBody)
	innerBody.Precede(innerCond)
	innerCond.Precede(innerBody, outerCond)
	outerCond.Precede(outerBody, exit)

	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if outer.Load() != 3 || inner.Load() != 12 {
		t.Fatalf("outer=%d inner=%d, want 3 and 12", outer.Load(), inner.Load())
	}
}
