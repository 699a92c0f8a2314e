package sim_test

// Black-box tests of the deterministic simulation executor, driving it
// through the public core API exactly as the property and fuzz suites do.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/sim"
)

// buildDAG wires a graphgen DAG into tf, counting executions per node.
func buildDAG(tf *core.Taskflow, d *graphgen.DAG, counts []int32) {
	tasks := make([]core.Task, d.N)
	for i := 0; i < d.N; i++ {
		i := i
		tasks[i] = tf.Emplace1(func() { counts[i]++ })
	}
	for u := 0; u < d.N; u++ {
		d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
	}
}

func TestSimRunsRandomDAGExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 17, 150} {
			for seed := int64(0); seed < 5; seed++ {
				name := fmt.Sprintf("w%d/n%d/seed%d", workers, n, seed)
				t.Run(name, func(t *testing.T) {
					s := sim.New(workers, sim.WithSeed(seed))
					tf := core.NewShared(s)
					counts := make([]int32, n)
					buildDAG(tf, graphgen.Random(n, graphgen.Config{Seed: seed}), counts)
					const runs = 2
					for run := 0; run < runs; run++ {
						if err := tf.Run(); err != nil {
							t.Fatalf("run %d: %v", run, err)
						}
					}
					for i, c := range counts {
						if int(c) != runs {
							t.Fatalf("node %d executed %d times, want %d", i, c, runs)
						}
					}
					if err := s.Stats().Check(); err != nil {
						t.Fatal(err)
					}
					if err := s.Failure(); err != nil {
						t.Fatalf("liveness failure in correct model: %v", err)
					}
				})
			}
		}
	}
}

// TestSimSameSeedSameSchedule is the replay guarantee: an identical
// workload under an identical seed takes the identical schedule,
// fingerprinted by ScheduleHash over every PRNG decision.
func TestSimSameSeedSameSchedule(t *testing.T) {
	run := func(seed int64) uint64 {
		s := sim.New(4, sim.WithSeed(seed))
		tf := core.NewShared(s)
		counts := make([]int32, 80)
		buildDAG(tf, graphgen.Random(80, graphgen.Config{Seed: 7}), counts)
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		return s.ScheduleHash()
	}
	for seed := int64(0); seed < 4; seed++ {
		if a, b := run(seed), run(seed); a != b {
			t.Fatalf("seed %d: schedule hashes differ across identical runs: %#x vs %#x", seed, a, b)
		}
	}
}

// TestSimSeedsPermuteSchedules shows distinct seeds genuinely explore
// distinct interleavings: across a handful of seeds both the schedule
// hashes and the observed execution orders of independent tasks vary.
func TestSimSeedsPermuteSchedules(t *testing.T) {
	hashes := map[uint64]bool{}
	orders := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		s := sim.New(4, sim.WithSeed(seed))
		tf := core.NewShared(s)
		var order []byte
		for i := 0; i < 8; i++ {
			i := i
			tf.Emplace1(func() { order = append(order, byte('a'+i)) })
		}
		if err := tf.Run(); err != nil {
			t.Fatal(err)
		}
		hashes[s.ScheduleHash()] = true
		orders[string(order)] = true
	}
	if len(hashes) < 2 {
		t.Fatalf("8 seeds produced %d distinct schedule hashes, want >= 2", len(hashes))
	}
	if len(orders) < 2 {
		t.Fatalf("8 seeds produced %d distinct execution orders of independent tasks, want >= 2", len(orders))
	}
}

// TestSimVirtualTimeRetry: an hour-scale retry backoff costs no wall
// time — the virtual clock jumps to the timer deadline when it fires.
func TestSimVirtualTimeRetry(t *testing.T) {
	s := sim.New(2, sim.WithSeed(3))
	tf := core.NewShared(s)
	attempts := 0
	tf.EmplaceErr(func() error {
		attempts++
		if attempts < 3 {
			return fmt.Errorf("transient %d", attempts)
		}
		return nil
	}).Retry(4, time.Hour)
	start := time.Now()
	if err := tf.Run(); err != nil {
		t.Fatalf("retried task failed: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("virtual-time retry took %v of wall time", wall)
	}
	// The 1h base backoff clamps to the 30s retry cap, jittered into
	// [15s, 30s] per attempt; two fired backoffs advance the virtual
	// clock by at least 30s.
	if s.Now() < 30*time.Second {
		t.Fatalf("virtual clock advanced only %v across two capped backoffs", s.Now())
	}
	if err := s.Stats().Check(); err != nil {
		t.Fatal(err)
	}
}

// submitFn submits fn directly, bypassing core.
func submitFn(s *sim.SimExecutor, fn func(executor.Context)) error {
	return s.Submit(executor.NewTask(fn))
}

func TestSimAfterFuncLifecycle(t *testing.T) {
	s := sim.New(1, sim.WithSeed(1))

	// A timer stopped before the drive loop regains control never fires.
	stopped, fired := false, false
	if err := submitFn(s, func(ctx executor.Context) {
		tm := ctx.Executor().AfterFunc(time.Minute, func() { fired = true })
		stopped = tm.Stop()
	}); err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("Stop on an armed virtual timer returned false")
	}
	if fired {
		t.Fatal("stopped timer fired")
	}

	// An armed timer fires (in virtual time) before quiescence.
	fired = false
	if err := submitFn(s, func(ctx executor.Context) {
		ctx.Executor().AfterFunc(time.Minute, func() { fired = true })
	}); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("armed virtual timer did not fire by quiescence")
	}
	if s.Now() < time.Minute {
		t.Fatalf("virtual clock %v, want >= 1m", s.Now())
	}

	// After Shutdown, AfterFunc resolves immediately: the callback runs
	// inline and observes the stopped scheduler.
	s.Shutdown()
	ran := false
	s.AfterFunc(time.Hour, func() { ran = true })
	if !ran {
		t.Fatal("post-Shutdown AfterFunc callback did not run inline")
	}
	if err := submitFn(s, nil); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShutdown", err)
	}
}

// TestSimShutdownFiresArmedTimers mirrors the real executor's contract:
// timers still armed at Shutdown are resolved during Shutdown, and their
// callbacks observe the stopped scheduler.
func TestSimShutdownFiresArmedTimers(t *testing.T) {
	s := sim.New(1, sim.WithSeed(1))
	var sawShutdown bool
	if err := submitFn(s, func(ctx executor.Context) {
		sched := ctx.Executor()
		sched.AfterFunc(time.Hour, func() { sawShutdown = sched.Stopped() })
		// Shut down from inside the task, while the timer is still armed:
		// the only window where a virtual timer can outlive the drive loop.
		sched.Shutdown()
	}); err != nil {
		t.Fatal(err)
	}
	if !sawShutdown {
		t.Fatal("armed timer was not resolved during Shutdown (or ran before it)")
	}
}

func TestSimPanicContainment(t *testing.T) {
	s := sim.New(2, sim.WithSeed(1))
	if err := submitFn(s, func(executor.Context) { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	if err := s.PanicError(); err == nil {
		t.Fatal("PanicError nil after a task panic")
	}
	// The simulation survives and keeps scheduling.
	ran := false
	if err := submitFn(s, func(executor.Context) { ran = true }); err != nil || !ran {
		t.Fatalf("submission after contained panic: ran=%v err=%v", ran, err)
	}
}

// TestSimConservationUnderFailFast: fail-fast cancellation skips task
// bodies but every accepted Runnable still flows through the scheduler,
// so the Enqueued == Executed law holds on failing runs too.
func TestSimConservationUnderFailFast(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := sim.New(4, sim.WithSeed(seed))
		tf := core.NewShared(s)
		d := graphgen.Random(60, graphgen.Config{Seed: seed})
		tasks := make([]core.Task, d.N)
		for i := 0; i < d.N; i++ {
			if i == 10 {
				tasks[i] = tf.EmplaceErr(func() error { return errors.New("injected") })
				continue
			}
			tasks[i] = tf.Emplace1(func() {})
		}
		for u := 0; u < d.N; u++ {
			d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
		}
		err := tf.Run()
		if err == nil {
			t.Fatalf("seed %d: failing graph reported success", seed)
		}
		if cerr := s.Stats().Check(); cerr != nil {
			t.Fatalf("seed %d: %v (after run error %v)", seed, cerr, err)
		}
		if ferr := s.Failure(); ferr != nil {
			t.Fatalf("seed %d: liveness failure: %v", seed, ferr)
		}
	}
}
