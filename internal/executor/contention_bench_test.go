package executor

// Contention benchmarks for the notifier and injection paths — the two
// structures that serialize at high core counts. Every benchmark runs
// across a GOMAXPROCS ladder (1/2/4/8/16) so the scaling knee, not just
// the single-core figure, is visible on any machine. The numbers of record
// for these paths are the benchmark harness's wsq.contended_steal_ns and
// wsq.contended_steal_win_share probes (go run ./benchmark -trace 1).
//
// The four shapes:
//
//   - ThunderingHerd: all workers parked, one external batch of exactly
//     one task per worker — the all-park/all-wake pattern. Dominated by
//     the wake path (one wake popping every waiter) and the re-park path.
//
//   - EmptyStealStorm: a single self-resubmitting chain on a full pool.
//     Only one task exists at any instant, so every other worker loops
//     steal sweeps over empty deques, parks, and is woken again by the
//     chain's per-submit wake — the notifier fast path under fire.
//
//   - CrossWorkerFanout: one source floods 8×workers tasks in a batch;
//     thieves spread them, the last finisher re-arms. Exercises wake
//     bursts plus batch stealing under real task traffic.
//
//   - InjectionFlood: GOMAXPROCS external producers submitting distinct
//     task objects as fast as they can while the pool drains — the
//     Pipeflow-style streaming shape that hammers the injection queue
//     lock.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contentionLadder is the worker/GOMAXPROCS ladder the suite runs at.
var contentionLadder = []int{1, 2, 4, 8, 16}

// ladderRun runs fn once per rung with GOMAXPROCS pinned to the rung's
// worker count, restoring the previous setting afterwards.
func ladderRun(b *testing.B, fn func(b *testing.B, w int)) {
	for _, w := range contentionLadder {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			fn(b, w)
		})
	}
}

// livenessWatchdog re-issues wakeups every millisecond while work is
// visible. The pre-eventcount notifier could lose a wakeup outright when a
// producer's idler check raced a worker's check-then-park window (this
// suite deadlocked it reproducibly at workers=1), so the suite needs a
// rescue path to benchmark the "before" side at all. On the eventcount
// notifier the watchdog is one fast-path atomic load per tick — it only
// does work when a wakeup was actually lost, so it costs the measurements
// nothing and doubles as a liveness alarm if a future change reopens the
// window.
func livenessWatchdog(e *Executor) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if e.anyWork() {
					e.wake(e.NumWorkers())
				}
			}
		}
	}()
	return func() { close(done) }
}

// BenchmarkContentionThunderingHerd submits one task per worker as a
// single external batch and waits for all of them, with spinning disabled
// so every idle worker parks immediately: each iteration is one all-wake
// herd followed by an all-park stampede.
func BenchmarkContentionThunderingHerd(b *testing.B) {
	ladderRun(b, func(b *testing.B, w int) {
		e := New(w, withSpin(0))
		defer e.Shutdown()
		defer livenessWatchdog(e)()
		var remaining atomic.Int64
		done := make(chan struct{})
		tasks := make([]*Runnable, w)
		for i := range tasks {
			tasks[i] = NewTask(func(Context) {
				if remaining.Add(-1) == 0 {
					done <- struct{}{}
				}
			})
		}
		// Warm up: queues grow, workers settle into their park/wake loop.
		for i := 0; i < 3; i++ {
			remaining.Store(int64(w))
			if err := e.SubmitBatch(tasks); err != nil {
				b.Fatal(err)
			}
			<-done
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			remaining.Store(int64(w))
			if err := e.SubmitBatch(tasks); err != nil {
				b.Fatal(err)
			}
			<-done
		}
	})
}

// BenchmarkContentionEmptyStealStorm runs one self-resubmitting task chain
// through a full pool: every hop is one Submit (and its wake attempt)
// while the other workers sweep empty deques, park and get woken. ns/op is
// the per-hop cost of the wake path under an empty-steal storm.
func BenchmarkContentionEmptyStealStorm(b *testing.B) {
	ladderRun(b, func(b *testing.B, w int) {
		e := New(w)
		defer e.Shutdown()
		defer livenessWatchdog(e)()
		done := make(chan struct{})
		var remaining int64
		task := newIntrusive(func(ctx Context, task *intrusiveTask) {
			remaining--
			if remaining <= 0 {
				done <- struct{}{}
				return
			}
			ctx.Submit(&task.self)
		})
		run := func(hops int64) {
			remaining = hops
			if err := e.Submit(&task.self); err != nil {
				b.Fatal(err)
			}
			<-done
		}
		run(1000) // warm up
		b.ReportAllocs()
		b.ResetTimer()
		run(int64(b.N))
	})
}

// BenchmarkContentionCrossWorkerFanout re-runs a 1 → 8·workers fan-out:
// the source batch-publishes all children onto its own deque, the herd
// wakes, and the children spread across the pool through batch steals.
func BenchmarkContentionCrossWorkerFanout(b *testing.B) {
	ladderRun(b, func(b *testing.B, w int) {
		e := New(w)
		defer e.Shutdown()
		defer livenessWatchdog(e)()
		fanout := 8 * w
		var remaining atomic.Int64
		done := make(chan struct{})
		children := make([]*Runnable, fanout)
		for i := range children {
			children[i] = NewTask(func(Context) {
				if remaining.Add(-1) == 0 {
					done <- struct{}{}
				}
			})
		}
		root := NewTask(func(ctx Context) { ctx.SubmitBatch(children) })
		run := func() {
			remaining.Store(int64(fanout))
			if err := e.Submit(root); err != nil {
				b.Fatal(err)
			}
			<-done
		}
		run() // warm up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

// BenchmarkContentionInjectionFlood floods the injection path: one
// external producer goroutine per worker, each submitting its own
// pre-built task object in a tight loop while the pool drains. ns/op is
// the cost of one externally submitted task end to end under maximum
// submission-side contention.
func BenchmarkContentionInjectionFlood(b *testing.B) {
	ladderRun(b, func(b *testing.B, w int) {
		e := New(w)
		defer e.Shutdown()
		defer livenessWatchdog(e)()
		var done atomic.Int64
		producers := w
		tasks := make([]*Runnable, producers)
		for i := range tasks {
			tasks[i] = NewTask(func(Context) { done.Add(1) })
		}
		flood := func(total int) {
			done.Store(0)
			per := total / producers
			extra := total - per*producers
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				n := per
				if p == 0 {
					n += extra
				}
				wg.Add(1)
				go func(r *Runnable, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := e.Submit(r); err != nil {
							b.Error(err)
							return
						}
					}
				}(tasks[p], n)
			}
			wg.Wait()
			for done.Load() != int64(total) {
				runtime.Gosched()
			}
		}
		flood(256 * producers) // warm up
		b.ReportAllocs()
		b.ResetTimer()
		flood(b.N)
	})
}
