package core

import (
	"sync/atomic"
	"testing"
)

// concurrencyProbe records the peak number of simultaneously running
// bodies.
type concurrencyProbe struct {
	cur, peak atomic.Int64
}

func (p *concurrencyProbe) body(spin int) func() {
	return func() {
		c := p.cur.Add(1)
		for {
			pk := p.peak.Load()
			if c <= pk || p.peak.CompareAndSwap(pk, c) {
				break
			}
		}
		for i := 0; i < spin; i++ {
			_ = i * i
		}
		p.cur.Add(-1)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	sem := NewSemaphore(1)
	var probe concurrencyProbe
	var ran atomic.Int64
	for i := 0; i < 200; i++ {
		tf.Emplace1(func() {
			probe.body(2000)()
			ran.Add(1)
		}).Acquire(sem).Release(sem)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 200 {
		t.Fatalf("ran %d of 200 tasks", ran.Load())
	}
	if probe.peak.Load() != 1 {
		t.Fatalf("peak concurrency %d under a unit semaphore", probe.peak.Load())
	}
	if sem.Value() != 1 {
		t.Fatalf("semaphore leaked: value %d", sem.Value())
	}
}

func TestSemaphoreCountN(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	sem := NewSemaphore(3)
	var probe concurrencyProbe
	for i := 0; i < 100; i++ {
		tf.Emplace1(probe.body(5000)).Acquire(sem).Release(sem)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if probe.peak.Load() > 3 {
		t.Fatalf("peak concurrency %d exceeds semaphore count 3", probe.peak.Load())
	}
	if sem.Value() != 3 {
		t.Fatalf("semaphore leaked: value %d", sem.Value())
	}
}

func TestSemaphoreAcrossGraphSections(t *testing.T) {
	// Two independent fan-outs share a unit semaphore: their bodies never
	// overlap even though the graph allows it.
	tf := New(4)
	defer tf.Close()
	sem := NewSemaphore(1)
	var probe concurrencyProbe
	a := tf.Emplace1(func() {})
	b := tf.Emplace1(func() {})
	for i := 0; i < 30; i++ {
		ta := tf.Emplace1(probe.body(1000)).Acquire(sem).Release(sem)
		tb := tf.Emplace1(probe.body(1000)).Acquire(sem).Release(sem)
		a.Precede(ta)
		b.Precede(tb)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if probe.peak.Load() != 1 {
		t.Fatalf("peak = %d", probe.peak.Load())
	}
}

func TestMultipleSemaphores(t *testing.T) {
	tf := New(4)
	defer tf.Close()
	s1 := NewSemaphore(1)
	s2 := NewSemaphore(1)
	var probe concurrencyProbe
	var ran atomic.Int64
	// Tasks acquiring {s1}, {s2} and {s1,s2}: the sorted acquisition
	// order prevents deadlock.
	for i := 0; i < 30; i++ {
		tf.Emplace1(func() { probe.body(500)(); ran.Add(1) }).Acquire(s1).Release(s1)
		tf.Emplace1(func() { probe.body(500)(); ran.Add(1) }).Acquire(s2).Release(s2)
		tf.Emplace1(func() { probe.body(500)(); ran.Add(1) }).Acquire(s1, s2).Release(s1, s2)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 90 {
		t.Fatalf("ran %d of 90", ran.Load())
	}
	if s1.Value() != 1 || s2.Value() != 1 {
		t.Fatal("semaphores leaked")
	}
}

func TestSemaphoreAsymmetricProducerConsumer(t *testing.T) {
	// Producers release units that consumers acquire: a dependency
	// expressed purely through semaphores.
	tf := New(4)
	defer tf.Close()
	sem := NewSemaphore(0)
	var produced, consumed atomic.Int64
	const n = 25
	for i := 0; i < n; i++ {
		tf.Emplace1(func() { produced.Add(1) }).Release(sem)
		tf.Emplace1(func() { consumed.Add(1) }).Acquire(sem)
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	if produced.Load() != n || consumed.Load() != n {
		t.Fatalf("produced %d consumed %d", produced.Load(), consumed.Load())
	}
	if sem.Value() != 0 {
		t.Fatalf("unbalanced semaphore: %d", sem.Value())
	}
}

func TestSemaphoreWithConditionLoop(t *testing.T) {
	// Each loop iteration re-acquires and re-releases the semaphore.
	tf := New(2)
	defer tf.Close()
	sem := NewSemaphore(1)
	var iters atomic.Int64
	init := tf.Emplace1(func() {})
	body := tf.Emplace1(func() { iters.Add(1) }).Acquire(sem).Release(sem)
	cond := tf.EmplaceCondition(func() int {
		if iters.Load() < 7 {
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
	if iters.Load() != 7 {
		t.Fatalf("iterations = %d", iters.Load())
	}
	if sem.Value() != 1 {
		t.Fatalf("semaphore leaked after loop: %d", sem.Value())
	}
}

func TestSemaphoreSourceTasksParked(t *testing.T) {
	// All sources guarded by a unit semaphore: dispatch must park all but
	// one and the releases must drain the rest.
	tf := New(4)
	defer tf.Close()
	sem := NewSemaphore(1)
	var probe concurrencyProbe
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		tf.Emplace1(func() { probe.body(500)(); ran.Add(1) }).Acquire(sem).Release(sem)
	}
	f := tf.Dispatch()
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 || probe.peak.Load() != 1 {
		t.Fatalf("ran=%d peak=%d", ran.Load(), probe.peak.Load())
	}
	tf.WaitForAll()
}

func TestNegativeSemaphorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSemaphore(-1) did not panic")
		}
	}()
	NewSemaphore(-1)
}

func TestSemaphoreInsertSorted(t *testing.T) {
	a, b, c := NewSemaphore(1), NewSemaphore(1), NewSemaphore(1)
	tf := New(1)
	defer tf.Close()
	task := tf.Emplace1(func() {}).Acquire(c, a, b)
	sems := task.node.semAcquires()
	if len(sems) != 3 {
		t.Fatalf("len = %d", len(sems))
	}
	for i := 1; i < len(sems); i++ {
		if sems[i-1].id >= sems[i].id {
			t.Fatal("acquire list not sorted by id")
		}
	}
	tf.g = &graph{} // the semaphores are not released; skip running
}
