package chaos_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/chaos"
	"gotaskflow/internal/core"
	"gotaskflow/internal/testutil"
)

// waitQuiesce runs WaitForAll with a liveness deadline: the whole point of
// the fault layer is that no injected mixture of panics, failures, and
// delays can hang the waiters. On failure it prints the recipe line that
// replays exactly this case.
func waitQuiesce(t *testing.T, tf *core.Taskflow, recipe string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tf.WaitForAll() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatalf("executor failed to quiesce under injected faults\n%s", recipe)
		return nil
	}
}

// assertCoherent checks the error contract after a chaotic run: an error
// is reported iff a panic or failure actually fired, and pure error-mode
// faults are identifiable via errors.Is(err, ErrInjected). Every failure
// carries the one-line replay recipe.
func assertCoherent(t *testing.T, in *chaos.Injector, err error, recipe string) {
	t.Helper()
	fails, panics := 0, 0
	for _, f := range in.Triggered() {
		switch f.Mode {
		case chaos.Fail:
			fails++
		case chaos.Panic:
			panics++
		}
	}
	if fails+panics > 0 && err == nil {
		t.Fatalf("%d faults fired but the run reported no error\n%s", fails+panics, recipe)
	}
	if fails+panics == 0 && err != nil {
		t.Fatalf("no fault fired but the run reported %v\n%s", err, recipe)
	}
	if err == nil {
		return
	}
	if panics == 0 && !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error %v does not identify the injected failure\n%s", err, recipe)
	}
	if fails == 0 && panics > 0 && !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %v does not surface the injected panic\n%s", err, recipe)
	}
}

// buildWavefront wires an n x n wavefront grid — cell (i,j) precedes
// (i+1,j) and (i,j+1) — with every body wrapped by the injector.
func buildWavefront(tf *core.Taskflow, in *chaos.Injector, n int) {
	grid := make([][]core.Task, n)
	for i := range grid {
		grid[i] = make([]core.Task, n)
		for j := range grid[i] {
			name := fmt.Sprintf("w%d_%d", i, j)
			grid[i][j] = tf.EmplaceErr(in.Wrap(name, func() {
				// A touch of real work so delays overlap execution.
				runtime.Gosched()
			})).Name(name)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				grid[i][j].Precede(grid[i+1][j])
			}
			if j+1 < n {
				grid[i][j].Precede(grid[i][j+1])
			}
		}
	}
}

// buildTraversal wires a layered random DAG — layers x width nodes, each
// non-first-layer node depending on one-to-three random nodes of the
// previous layer — with every body wrapped by the injector. The shape is
// drawn from its own seeded PRNG so a failing seed replays exactly.
func buildTraversal(tf *core.Taskflow, in *chaos.Injector, seed int64, layers, width int) {
	rng := rand.New(rand.NewSource(seed))
	prev := make([]core.Task, 0, width)
	for l := 0; l < layers; l++ {
		cur := make([]core.Task, 0, width)
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("t%d_%d", l, w)
			task := tf.EmplaceErr(in.Wrap(name, nil)).Name(name)
			if l > 0 {
				deps := 1 + rng.Intn(3)
				for d := 0; d < deps; d++ {
					prev[rng.Intn(len(prev))].Precede(task)
				}
			}
			cur = append(cur, task)
		}
		prev = cur
	}
}

func TestChaosWavefrontQuiesces(t *testing.T) {
	for _, seed := range chaos.Seeds(8) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			recipe := chaos.Recipe(fmt.Sprintf("TestChaosWavefrontQuiesces/seed%d", seed),
				"./internal/chaos", seed, 4, "wavefront8x8")
			in := chaos.New(chaos.Config{
				Seed:     seed,
				PPanic:   0.02,
				PFail:    0.05,
				PDelay:   0.20,
				MaxDelay: 2 * time.Millisecond,
			})
			tf := core.New(4)
			defer tf.Close()
			buildWavefront(tf, in, 8)
			assertCoherent(t, in, waitQuiesce(t, tf, recipe), recipe)
		})
	}
}

func TestChaosTraversalQuiesces(t *testing.T) {
	for _, seed := range chaos.Seeds(8) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			recipe := chaos.Recipe(fmt.Sprintf("TestChaosTraversalQuiesces/seed%d", seed),
				"./internal/chaos", seed, 4, "traversal12x8")
			in := chaos.New(chaos.Config{
				Seed:     seed,
				PPanic:   0.03,
				PFail:    0.08,
				PDelay:   0.15,
				MaxDelay: time.Millisecond,
			})
			tf := core.New(4)
			defer tf.Close()
			buildTraversal(tf, in, seed, 12, 8)
			assertCoherent(t, in, waitQuiesce(t, tf, recipe), recipe)
		})
	}
}

// TestChaosChainsQuiesces: forests of chains, whose links run fused — on
// core.New's quiet pool each link is its body and its successor check —
// under seeded faults. Every run drains and its error is coherent with the
// faults that fired. Plain links take panics and delays: a panic is
// recorded and cancels nothing, so every link runs, each panicking one
// short of its body. Fallible links take failures too, which
// fail-fast-cancel the forest; a run in which none fired ran every link.
func TestChaosChainsQuiesces(t *testing.T) {
	const chains, links = 8, 64
	forests := []struct {
		name     string
		fallible bool
		cfg      chaos.Config
	}{
		{"plain", false, chaos.Config{PPanic: 0.01, PDelay: 0.05, MaxDelay: 500 * time.Microsecond}},
		{"fallible", true, chaos.Config{PPanic: 0.002, PFail: 0.004, PDelay: 0.05, MaxDelay: 500 * time.Microsecond}},
	}
	for _, seed := range chaos.Seeds(8) {
		for _, f := range forests {
			seed, f := seed, f
			t.Run(fmt.Sprintf("seed%d/%s", seed, f.name), func(t *testing.T) {
				recipe := chaos.Recipe(fmt.Sprintf("TestChaosChainsQuiesces/seed%d/%s", seed, f.name),
					"./internal/chaos", seed, 4, "chains8x64")
				f.cfg.Seed = seed
				in := chaos.New(f.cfg)
				tf := core.New(4)
				defer tf.Close()
				var ran atomic.Int64
				for c := 0; c < chains; c++ {
					var prev core.Task
					for l := 0; l < links; l++ {
						name := fmt.Sprintf("c%d_%d", c, l)
						body := in.Wrap(name, func() { ran.Add(1) })
						var task core.Task
						if f.fallible {
							task = tf.EmplaceErr(body)
						} else {
							task = tf.Emplace1(func() { _ = body() })
						}
						task.Name(name)
						if l > 0 {
							prev.Precede(task)
						}
						prev = task
					}
				}
				err := waitQuiesce(t, tf, recipe)
				assertCoherent(t, in, err, recipe)
				want := int64(chains * links)
				if !f.fallible {
					want -= int64(in.CountPlanned(chaos.Panic))
				} else if err != nil {
					return
				}
				if ran.Load() != want {
					t.Fatalf("%d link bodies ran, want %d\n%s", ran.Load(), want, recipe)
				}
			})
		}
	}
}

// Faults layered on retrying tasks: retries must neither hang the
// topology nor mask a permanently failing body.
func TestChaosWithRetriesQuiesces(t *testing.T) {
	for _, seed := range chaos.Seeds(4) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			recipe := chaos.Recipe(fmt.Sprintf("TestChaosWithRetriesQuiesces/seed%d", seed),
				"./internal/chaos", seed, 4, "chain40+retry")
			in := chaos.New(chaos.Config{Seed: seed, PFail: 0.15, PDelay: 0.1})
			tf := core.New(4)
			defer tf.Close()
			var prev core.Task
			for i := 0; i < 40; i++ {
				task := tf.EmplaceErr(in.Wrap(fmt.Sprintf("r%d", i), nil)).
					Retry(2, 100*time.Microsecond)
				if i > 0 {
					prev.Precede(task)
				}
				prev = task
			}
			err := waitQuiesce(t, tf, recipe)
			// A Wrap-planned Fail fires on every attempt, so retries must
			// exhaust and surface it; a clean plan must stay clean.
			if in.CountPlanned(chaos.Fail) > 0 {
				if !errors.Is(err, chaos.ErrInjected) {
					t.Fatalf("err = %v, want injected failure after retry exhaustion\n%s", err, recipe)
				}
			} else if err != nil {
				t.Fatalf("err = %v with a fault-free plan\n%s", err, recipe)
			}
		})
	}
}

// Faults inside semaphore-throttled graphs: units must be returned on
// every exit path or the drain deadlocks.
func TestChaosWithSemaphoresQuiesces(t *testing.T) {
	for _, seed := range chaos.Seeds(4) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			recipe := chaos.Recipe(fmt.Sprintf("TestChaosWithSemaphoresQuiesces/seed%d", seed),
				"./internal/chaos", seed, 4, "sem2x60")
			in := chaos.New(chaos.Config{Seed: seed, PPanic: 0.05, PFail: 0.1, PDelay: 0.2})
			tf := core.New(4)
			defer tf.Close()
			sem := core.NewSemaphore(2)
			for i := 0; i < 60; i++ {
				tf.EmplaceErr(in.Wrap(fmt.Sprintf("s%d", i), nil)).
					Acquire(sem).Release(sem)
			}
			assertCoherent(t, in, waitQuiesce(t, tf, recipe), recipe)
		})
	}
}

// Park/wake churn: repeated burst/idle cycles on ONE pool force every
// worker through full eventcount park/unpark rounds between bursts, with
// injected delays randomizing who parks when. A lost wakeup anywhere in
// the publish-then-notify protocol shows up here as a hung run.
func TestChaosParkWakeChurn(t *testing.T) {
	in := chaos.New(chaos.Config{
		Seed:     7,
		PDelay:   0.5,
		MaxDelay: time.Millisecond,
	})
	tf := core.New(4)
	defer tf.Close()
	buildWavefront(tf, in, 3)
	for round := 0; round < 10; round++ {
		done := make(chan error, 1)
		go func() { done <- tf.Run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("round %d: pool failed to wake and quiesce", round)
		}
		// Idle gap: let every worker park so the next round's dispatch
		// exercises cold wakeups through the eventcount.
		time.Sleep(500 * time.Microsecond)
	}
}

func TestChaosDeterministicPlan(t *testing.T) {
	build := func() []chaos.Fault {
		in := chaos.New(chaos.Config{Seed: 42, PPanic: 0.1, PFail: 0.2, PDelay: 0.3})
		for i := 0; i < 200; i++ {
			in.Wrap(fmt.Sprintf("n%d", i), nil)
		}
		return in.Planned()
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("plan is empty; probabilities too low for the test to mean anything")
	}
	if len(a) != len(b) {
		t.Fatalf("plans differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The whole suite must not leak goroutines: after every topology drains
// and executors shut down, the count returns to the baseline (shared
// assertion: testutil.NoLeaks).
func TestChaosNoGoroutineLeak(t *testing.T) {
	testutil.NoLeaks(t)
	for _, seed := range chaos.Seeds(3) {
		recipe := chaos.Recipe("TestChaosNoGoroutineLeak", "./internal/chaos", seed, 4, "wavefront6x6")
		in := chaos.New(chaos.Config{Seed: seed, PPanic: 0.05, PFail: 0.1, PDelay: 0.2})
		tf := core.New(4)
		buildWavefront(tf, in, 6)
		waitQuiesce(t, tf, recipe)
		tf.Close()
	}
}
