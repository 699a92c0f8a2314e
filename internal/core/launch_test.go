package core

// Run and Dispatch launch a graph through the same two functions
// (newTopology, launch), so they must answer alike: the same refusals with
// the same errors, the same executions, the same statistics. These tests
// pin that, and what launch owns: an already-done context is refused by
// both, and a context watcher costs no goroutine. A subflow and a Composed
// child are armed by the same compile as a launched graph, so a spawned
// graph that Run would refuse fails its parent's run with the same error.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// TestLaunchRefusesDoneContext: a ctx that is done before the call runs
// nothing through either entry point, and both report context.Canceled.
func TestLaunchRefusesDoneContext(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	build := func() {
		tf.Emplace1(func() { ran.Add(1) }).Precede(tf.Emplace1(func() { ran.Add(1) }))
	}
	build()
	for i := 0; i < 200; i++ {
		if err := tf.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext #%d on a done ctx = %v, want context.Canceled", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		if i > 0 {
			build() // Dispatch consumed the graph
		}
		if err := tf.DispatchContext(ctx).Get(); !errors.Is(err, context.Canceled) {
			t.Fatalf("DispatchContext #%d on a done ctx: Get = %v, want context.Canceled", i, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d task bodies ran under a done ctx, want 0", n)
	}
}

// TestLaunchWatcherNeedsNoGoroutine: in-flight DispatchContext calls hold no
// goroutine each, and a ctx cancelled after the topology finished does not
// reach back into its result.
func TestLaunchWatcherNeedsNoGoroutine(t *testing.T) {
	const inFlight = 100
	tf := New(2)
	defer tf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the workers
	var started sync.Once
	entered := make(chan struct{})
	before := runtime.NumGoroutine()
	futures := make([]*Future, inFlight)
	for i := range futures {
		tf.Emplace1(func() {
			started.Do(func() { close(entered) })
			<-gate
		})
		futures[i] = tf.DispatchContext(ctx)
	}
	<-entered
	if grown := runtime.NumGoroutine() - before; grown >= 10 {
		t.Fatalf("%d blocked DispatchContext calls grew the goroutine count by %d, want < 10", inFlight, grown)
	}
	release()
	for i, f := range futures {
		if err := f.Get(); err != nil {
			t.Fatalf("future %d: Get = %v", i, err)
		}
	}
	cancel()
	time.Sleep(10 * time.Millisecond) // room for a watcher that was not stopped
	for i, f := range futures {
		if err := f.Get(); err != nil || f.Cancelled() {
			t.Fatalf("future %d after a late cancel: Get = %v, Cancelled = %v; want nil, false", i, err, f.Cancelled())
		}
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
}

// launched is what one launch of a graph returned.
type launched struct {
	err   error
	stats RunStats
}

// launchOnce executes tf's present graph once through Run or Dispatch and
// waits for it. A refused Dispatch must have resolved its Future by the time
// it returns.
func launchOnce(t *testing.T, tf *Taskflow, dispatch, refused bool) launched {
	if !dispatch {
		err := tf.Run()
		st, _ := tf.LastRunStats()
		return launched{err, st}
	}
	f := tf.Dispatch()
	if refused {
		select {
		case <-f.Done():
		default:
			t.Error("refused Dispatch returned an unresolved Future")
		}
	}
	err := f.Get()
	st, _ := f.Stats()
	return launched{err, st}
}

var launchCases = []struct {
	name string
	opts []executor.Option
	// refused: the launch is refused or fails at submission, so a
	// Dispatch resolves at once.
	refused bool
	// build wires the case's graph onto tf over e and returns what the case
	// observes of one launch; want is that observation for both entry
	// points, unless wantDispatch differs.
	build        func(e *executor.Executor, tf *Taskflow, dispatch bool) func(launched) string
	want         string
	wantDispatch string
}{
	{
		name:  "empty graph",
		build: func(*executor.Executor, *Taskflow, bool) func(launched) string { return errText },
		want:  "<nil>",
	},
	{
		name:    "no source",
		refused: true,
		build: func(_ *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			a, b := tf.Emplace1(func() {}), tf.Emplace1(func() {})
			a.Precede(b)
			b.Precede(a)
			return errText
		},
		want: ErrNoSource.Error(),
	},
	{
		name:    "back-edge cycle",
		refused: true,
		build: func(_ *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			x, y := tf.Emplace1(func() {}).Name("x"), tf.Emplace1(func() {}).Name("y")
			tf.Emplace1(func() {}).Precede(x)
			x.Precede(y)
			y.Precede(x)
			return errText
		},
		want: "core: cycle through tasks y -> x: " + ErrCyclic.Error(),
	},
	{
		name: "subflow back-edge cycle",
		build: func(_ *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			var ran atomic.Int64
			body := func() { ran.Add(1) }
			tf.Emplace1(func() {}).Precede(tf.EmplaceSubflow(func(sf *Subflow) {
				a, b, c := sf.Emplace1(body).Name("a"), sf.Emplace1(body).Name("b"), sf.Emplace1(body).Name("c")
				a.Precede(b)
				b.Precede(c)
				c.Precede(b)
			}).Name("sf"))
			return spawnedCycle(&ran)
		},
		want: `core: task "sf": core: cycle through tasks c -> b: ` + ErrCyclic.Error() + "; cyclic true; ran 0",
	},
	{
		name: "composed back-edge cycle",
		build: func(e *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			var ran atomic.Int64
			body := func() { ran.Add(1) }
			child := NewShared(e).SetName("child")
			x, y, z := child.Emplace1(body).Name("x"), child.Emplace1(body).Name("y"), child.Emplace1(body).Name("z")
			x.Precede(y)
			y.Precede(z)
			z.Precede(y)
			tf.Emplace1(func() {}).Precede(tf.Composed(child))
			return spawnedCycle(&ran)
		},
		want: `core: task "child": core: cycle through tasks z -> y: ` + ErrCyclic.Error() + "; cyclic true; ran 0",
	},
	{
		name:    "flow quota refusal",
		refused: true,
		build: func(e *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			f := e.NewFlow("small", executor.FlowConfig{MaxInFlight: 4})
			tf.SetFlow(f)
			var ran atomic.Int64
			for i := 0; i < 10; i++ {
				tf.Emplace1(func() { ran.Add(1) })
			}
			return func(l launched) string {
				return fmt.Sprintf("%v; ran %d; admitted %d", l.err, ran.Load(), f.Stats().AdmittedTasks)
			}
		},
		want: executor.ErrAdmission.Error() + "; ran 0; admitted 0",
	},
	{
		name:    "shut-down scheduler",
		refused: true,
		build: func(e *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			tf.Emplace1(func() {})
			e.Shutdown()
			return errText
		},
		want: executor.ErrShutdown.Error(),
	},
	{
		name: "semaphore-guarded source",
		build: func(_ *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			sem := NewSemaphore(1)
			var inside, overlaps, ran atomic.Int64
			for i := 0; i < 4; i++ {
				tf.Emplace1(func() {
					if inside.Add(1) > 1 {
						overlaps.Add(1)
					}
					ran.Add(1)
					inside.Add(-1)
				}).Acquire(sem).Release(sem)
			}
			tf.Emplace1(func() { ran.Add(1) })
			return func(l launched) string {
				return fmt.Sprintf("%v; ran %d; overlaps %d; units %d", l.err, ran.Load(), overlaps.Load(), sem.Value())
			}
		},
		want: "<nil>; ran 5; overlaps 0; units 1",
	},
	{
		name: "condition loop",
		build: func(_ *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			i := 0
			init := tf.Emplace1(func() { i = 0 })
			work := tf.Emplace1(func() { i++ })
			cond := tf.EmplaceCondition(func() int {
				if i < 5 {
					return 0
				}
				return 1
			})
			init.Precede(work)
			work.Precede(cond)
			cond.Precede(work, tf.Emplace1(func() {}))
			return func(l launched) string { return fmt.Sprintf("%v; iterations %d", l.err, i) }
		},
		want: "<nil>; iterations 5",
	},
	{
		name: "run stats",
		build: func(_ *executor.Executor, tf *Taskflow, _ bool) func(launched) string {
			tf.CollectRunStats(false)
			ts := tf.Emplace(func() {}, func() {}, func() {}, func() {})
			ts[0].Precede(ts[1], ts[2])
			ts[3].Succeed(ts[1], ts[2])
			return func(l launched) string {
				return fmt.Sprintf("%v; tasks %d; span %d", l.err, l.stats.Tasks, l.stats.Span)
			}
		},
		want: "<nil>; tasks 4; span 3",
	},
	{
		name: "traced generation",
		opts: []executor.Option{executor.WithTracing(1 << 10)},
		build: func(e *executor.Executor, tf *Taskflow, dispatch bool) func(launched) string {
			tf.Emplace1(func() {}).Name("only")
			if !dispatch {
				_ = tf.RunN(2) // the traced Run is the third
			}
			e.StartTrace()
			return func(l launched) string {
				tr, _ := e.StopTrace()
				for _, ev := range tr.Events {
					if ev.Kind == executor.EvTaskStart && ev.Meta.Name == "only" {
						return fmt.Sprintf("%v; gen %d", l.err, ev.Meta.Gen)
					}
				}
				return "no span"
			}
		},
		want:         "<nil>; gen 3",
		wantDispatch: "<nil>; gen 0",
	},
}

func errText(l launched) string { return fmt.Sprint(l.err) }

// spawnedCycle observes a launch whose spawned graph has a cycle: the error,
// whether it wraps ErrCyclic, and how many of the spawned bodies ran.
func spawnedCycle(ran *atomic.Int64) func(launched) string {
	return func(l launched) string {
		return fmt.Sprintf("%v; cyclic %v; ran %d", l.err, errors.Is(l.err, ErrCyclic), ran.Load())
	}
}

// TestLaunchRunAndDispatchAlike runs every case through both entry points,
// on pools of one, two and four workers.
func TestLaunchRunAndDispatchAlike(t *testing.T) {
	for _, c := range launchCases {
		for _, dispatch := range []bool{false, true} {
			entry, want := "Run", c.want
			if dispatch {
				entry = "Dispatch"
				if c.wantDispatch != "" {
					want = c.wantDispatch
				}
			}
			t.Run(c.name+"/"+entry, func(t *testing.T) {
				for _, workers := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
						e := executor.New(workers, c.opts...)
						defer e.Shutdown()
						tf := NewShared(e)
						observe := c.build(e, tf, dispatch)
						if got := observe(launchOnce(t, tf, dispatch, c.refused)); got != want {
							t.Fatalf("got %q, want %q", got, want)
						}
					})
				}
			})
		}
	}
}
