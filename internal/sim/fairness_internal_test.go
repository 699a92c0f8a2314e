package sim

// White-box validation of the fairness instrument: re-introduce the
// classic multi-tenant starvation bug — strict registration-order flow
// draining with no weighted share — and prove the service-gap sweep
// catches it deterministically. A flow registered behind a chatty
// class-mate is bypassed for as long as the mate keeps its queue
// non-empty; the weighted-round-robin wheel bounds that bypass at one
// rotation, so MaxServiceGap exceeding WheelSize−1 is the violation
// signature. The control sweep shows the faithful model never violates
// the bound on the same seeds.
//
// The same runs are the stall watchdog's second detector meeting a real
// starvation: every sim here is armed WithStallDetector, which feeds the
// executor's StallDetector the flow counters, so under the injected bug it
// must report flow-starvation (a standing heavy backlog drains several
// times the class's service-gap bound while the light flow waits) and under
// the faithful wheel it must report nothing.

import (
	"strings"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// runStarvationWorkload builds one sim (buggy or faithful), registers a
// heavy Batch flow ahead of a light one, pre-fills both queues from an
// orchestrator task (so nothing drains until both backlogs exist), runs
// to quiescence, and returns the light flow's worst service gap, the
// schedule hash and what the stall detector reported. Any liveness failure
// but the injected bug's flow-starvation is fatal.
func runStarvationWorkload(t *testing.T, seed int64, bug bool) (gap int, bound int, hash uint64, starved error) {
	t.Helper()
	opts := []Option{WithSeed(seed), WithServiceLog(), WithStallDetector(64)}
	if bug {
		opts = append(opts, withStrictDrainBug())
	}
	s := New(1, opts...)
	heavy := s.NewFlow("heavy", executor.FlowConfig{Class: executor.Batch, Weight: 1})
	light := s.NewFlow("light", executor.FlowConfig{Class: executor.Batch, Weight: 1})

	dispatch := func(f executor.Flow, n int) []*core.Future {
		futs := make([]*core.Future, n)
		for i := range futs {
			jf := core.NewShared(s).SetFlow(f)
			jf.Emplace1(func() {})
			futs[i] = jf.Dispatch()
		}
		return futs
	}

	var futs []*core.Future
	orch := core.NewShared(s)
	orch.Emplace1(func() {
		// Inside a running task the drive loop is reentrant — dispatches
		// only enqueue, so the heavy backlog is standing before the first
		// drain picks a flow.
		futs = append(futs, dispatch(heavy, 200)...)
		futs = append(futs, dispatch(light, 6)...)
	})
	if err := orch.Run(); err != nil {
		t.Fatalf("seed %d bug=%v: orchestrator failed: %v", seed, bug, err)
	}
	for i, f := range futs {
		if err := f.Get(); err != nil {
			t.Fatalf("seed %d bug=%v: job %d failed: %v", seed, bug, i, err)
		}
	}
	if starved = s.Failure(); starved != nil {
		for _, line := range strings.Split(starved.Error(), "\n") {
			if !bug || !strings.HasPrefix(line, "sim: "+executor.ReasonFlowStarved) {
				t.Fatalf("seed %d bug=%v: liveness failure: %v", seed, bug, line)
			}
		}
	}
	if err := s.CheckQueues(); err != nil {
		t.Fatalf("seed %d bug=%v: %v", seed, bug, err)
	}
	lightIdx := light.(*executor.FlowQueue).Index()
	return MaxServiceGap(s.ServiceLog(), executor.Batch, lightIdx), s.WheelSize(executor.Batch) - 1, s.ScheduleHash(), starved
}

// TestStrictDrainStarvationCaught sweeps 100 seeds under the injected
// strict-drain bug and requires the service-gap bound to be violated on
// most of them, with a deterministic replay of the first violating seed,
// and the stall detector to report flow-starvation, with the seed, on some.
func TestStrictDrainStarvationCaught(t *testing.T) {
	const seeds = 100
	violations, reported := 0, 0
	var firstSeed int64 = -1
	var firstReport error
	for seed := int64(0); seed < seeds; seed++ {
		gap, bound, _, starved := runStarvationWorkload(t, seed, true)
		if gap > bound {
			violations++
			if firstSeed < 0 {
				firstSeed = seed
			}
		}
		if starved != nil {
			reported++
			if firstReport == nil {
				firstReport = starved
			}
		}
	}
	if reported == 0 {
		t.Fatalf("the stall detector never reported %s under the injected strict-drain bug across %d seeds",
			executor.ReasonFlowStarved, seeds)
	}
	t.Logf("stall detector reported %s on %d/%d seeds; first: %v", executor.ReasonFlowStarved, reported, seeds, firstReport)
	if violations == 0 {
		t.Fatalf("injected strict-drain bug never violated the service-gap bound across %d seeds", seeds)
	}
	if violations < seeds/2 {
		t.Fatalf("injected strict-drain bug violated the bound on only %d/%d seeds — detector too weak", violations, seeds)
	}
	t.Logf("starvation detected on %d/%d seeds; first at seed %d", violations, seeds, firstSeed)
	t.Logf("replay: the violation is a pure function of the seed — "+
		"runStarvationWorkload(seed=%d, bug=true) under "+
		"go test ./internal/sim -run '^TestStrictDrainStarvationCaught$' -v", firstSeed)

	// Replay determinism: the first violating seed violates again with an
	// identical schedule fingerprint and identical gap.
	gapA, boundA, hashA, _ := runStarvationWorkload(t, firstSeed, true)
	gapB, _, hashB, _ := runStarvationWorkload(t, firstSeed, true)
	if gapA <= boundA {
		t.Fatalf("seed %d did not re-violate on replay (gap %d, bound %d)", firstSeed, gapA, boundA)
	}
	if gapA != gapB || hashA != hashB {
		t.Fatalf("seed %d: replays diverge: gap %d/%d, hash %#x/%#x",
			firstSeed, gapA, gapB, hashA, hashB)
	}
}

// TestWeightedDrainHoldsServiceBound is the control: the executor's
// weighted-round-robin wheel never exceeds the wheel-rotation bound on
// the exact workload and seeds the bug sweep uses, and the armed stall
// detector stays silent (runStarvationWorkload fails on any report).
func TestWeightedDrainHoldsServiceBound(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		gap, bound, _, _ := runStarvationWorkload(t, seed, false)
		if gap > bound {
			t.Fatalf("seed %d: faithful model bypassed the light flow for %d consecutive drains, bound %d",
				seed, gap, bound)
		}
	}
}

// TestServiceGapScalesWithWeight pins the weighted share itself: tripling
// the heavy flow's weight must widen the light flow's admissible (and
// observed) service gap, and the observed gap must stay within the
// enlarged wheel's bound.
func TestServiceGapScalesWithWeight(t *testing.T) {
	worst := func(weight int) (gap, bound int) {
		s := New(1, WithSeed(7), WithServiceLog())
		heavy := s.NewFlow("heavy", executor.FlowConfig{Class: executor.Batch, Weight: weight})
		light := s.NewFlow("light", executor.FlowConfig{Class: executor.Batch, Weight: 1})
		var futs []*core.Future
		orch := core.NewShared(s)
		orch.Emplace1(func() {
			for i := 0; i < 40; i++ {
				jf := core.NewShared(s).SetFlow(heavy)
				jf.Emplace1(func() {})
				futs = append(futs, jf.Dispatch())
			}
			for i := 0; i < 6; i++ {
				jf := core.NewShared(s).SetFlow(light)
				jf.Emplace1(func() {})
				futs = append(futs, jf.Dispatch())
			}
		})
		if err := orch.Run(); err != nil {
			t.Fatalf("weight %d: %v", weight, err)
		}
		for _, f := range futs {
			if err := f.Get(); err != nil {
				t.Fatalf("weight %d: %v", weight, err)
			}
		}
		if err := s.CheckQueues(); err != nil {
			t.Fatalf("weight %d: %v", weight, err)
		}
		lightIdx := light.(*executor.FlowQueue).Index()
		return MaxServiceGap(s.ServiceLog(), executor.Batch, lightIdx), s.WheelSize(executor.Batch) - 1
	}
	gap1, bound1 := worst(1)
	gap3, bound3 := worst(3)
	if gap1 > bound1 || gap3 > bound3 {
		t.Fatalf("gap exceeds bound: w1 %d/%d, w3 %d/%d", gap1, bound1, gap3, bound3)
	}
	if bound3 <= bound1 {
		t.Fatalf("tripling the heavy weight did not widen the wheel: bounds %d vs %d", bound1, bound3)
	}
	t.Logf("light-flow worst gap: weight 1 → %d (bound %d), weight 3 → %d (bound %d)", gap1, bound1, gap3, bound3)
}
