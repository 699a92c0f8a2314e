package sim

// White-box checks of the fairness instrument. A flow registered behind a
// chatty class-mate must be serviced at least once per rotation of the
// weighted-round-robin wheel, so MaxServiceGap above WheelSize−1 is the
// violation signature of a starvation bug — the classic one being strict
// registration-order draining with no weighted share.
//
// The same runs are the stall watchdog's second detector: every sim here is
// armed WithStallDetector, which feeds the executor's StallDetector the flow
// counters, so a starving policy must also be reported as flow-starvation.
// The sweep runs the faithful policy and counts the seeds on which either
// instrument fires; the mutation kill table (internal/mutants) breaks the
// flow table's wheel walk and requires this sweep to catch it. The
// instruments themselves are checked against the starvation policy too:
// strictDrain is a registration-order drain written here, in the test, and
// both must catch it on the same workload and seeds.

import (
	"fmt"
	"strings"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// runStarvationWorkload builds one sim, registers a heavy Batch flow ahead
// of a light one, pre-fills both queues from an orchestrator task (so
// nothing drains until both backlogs exist), runs to quiescence, and
// returns the light flow's worst service gap, its bound, the schedule hash
// and what the stall detector reported. With strict set, the orchestrator
// then empties both queues itself with strictDrain instead of leaving them
// to the flow table's wheel. Any liveness failure but flow-starvation is
// fatal.
func runStarvationWorkload(t *testing.T, seed int64, strict bool) (gap int, bound int, hash uint64, starved error) {
	t.Helper()
	s := New(1, WithSeed(seed), WithServiceLog(), WithStallDetector(64))
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
		if strict {
			strictDrain(s, executor.Batch)
		}
	})
	if err := orch.Run(); err != nil {
		t.Fatalf("seed %d: orchestrator failed: %v", seed, err)
	}
	for i, f := range futs {
		if err := f.Get(); err != nil {
			t.Fatalf("seed %d: job %d failed: %v", seed, i, err)
		}
	}
	if starved = s.Failure(); starved != nil {
		for _, line := range strings.Split(starved.Error(), "\n") {
			if !strings.HasPrefix(line, "sim: "+executor.ReasonFlowStarved) {
				t.Fatalf("seed %d: liveness failure: %v", seed, line)
			}
		}
	}
	if err := s.CheckQueues(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	lightIdx := light.Index()
	return MaxServiceGap(s.ServiceLog(), executor.Batch, lightIdx), s.WheelSize(executor.Batch) - 1, s.ScheduleHash(), starved
}

// strictDrain is the classic multi-tenant starvation policy, run from
// inside a task on the sim's current worker: it drains a class's flows
// strictly in registration order, always the first one with backlog, with
// no weighted share. It is the test's policy, not the sim's — each drain
// takes a seed-chosen batch through the flow's own Take, is logged as the
// sim logs a drain, feeds the sim's armed stall detector, and leaves its
// tasks on the worker's deque for the schedule to run.
func strictDrain(s *SimExecutor, class executor.PriorityClass) {
	w := s.cur
	s.checkStall() // mark every flow before the first drain
	for {
		bl := s.backlogged(class)
		if len(bl) == 0 {
			return
		}
		f := bl[0]
		grabbed := make([]*executor.Runnable, s.batch(f.Backlog()))
		sv := FlowService{Class: class, FlowIdx: f.Index(), Flow: f.Name(), Tasks: len(grabbed)}
		for _, g := range bl {
			sv.Backlogged = append(sv.Backlogged, g.Index())
		}
		s.services = append(s.services, sv)
		f.Take(grabbed)
		s.st.FlowDrains++
		s.st.FlowDrainedTasks += uint64(len(grabbed))
		s.deques[w] = append(s.deques[w], grabbed...)
		s.checkStall()
	}
}

// TestStrictDrainStarvationCaught sweeps 100 seeds under strictDrain and
// requires the service-gap bound to be violated on most of them, with a
// deterministic replay of the first violating seed, and the stall detector
// to report flow-starvation on some.
func TestStrictDrainStarvationCaught(t *testing.T) {
	const seeds = 100
	violations, reported := 0, 0
	var firstSeed int64 = -1
	var firstReport error
	for seed := int64(0); seed < seeds; seed++ {
		gap, bound, _, starved := runStarvationWorkload(t, seed, true)
		if gap > bound {
			if violations++; firstSeed < 0 {
				firstSeed = seed
			}
		}
		if starved != nil {
			if reported++; firstReport == nil {
				firstReport = starved
			}
		}
	}
	if reported == 0 {
		t.Fatalf("the stall detector never reported %s under a strict registration-order drain across %d seeds",
			executor.ReasonFlowStarved, seeds)
	}
	t.Logf("stall detector reported %s on %d/%d seeds; first: %v", executor.ReasonFlowStarved, reported, seeds, firstReport)
	if violations < seeds/2 {
		t.Fatalf("a strict registration-order drain broke the service-gap bound on only %d/%d seeds — instrument too weak",
			violations, seeds)
	}
	t.Logf("starvation detected on %d/%d seeds; first at seed %d", violations, seeds, firstSeed)

	// Replay determinism: the first violating seed violates again with an
	// identical schedule fingerprint and identical gap.
	gapA, boundA, hashA, _ := runStarvationWorkload(t, firstSeed, true)
	gapB, _, hashB, _ := runStarvationWorkload(t, firstSeed, true)
	if gapA <= boundA {
		t.Fatalf("seed %d did not re-violate on replay (gap %d, bound %d)", firstSeed, gapA, boundA)
	}
	if gapA != gapB || hashA != hashB {
		t.Fatalf("seed %d: replays diverge: gap %d/%d, hash %#x/%#x", firstSeed, gapA, gapB, hashA, hashB)
	}
}

// TestWeightedDrainHoldsServiceBound sweeps 100 seeds: the executor's
// weighted-round-robin wheel never exceeds the wheel-rotation bound, and the
// armed stall detector stays silent. A failure reports on how many seeds
// each instrument fired and whether the first violating seed replays with
// the same gap and schedule fingerprint — the detection power the kill
// table's strict-drain row reads.
func TestWeightedDrainHoldsServiceBound(t *testing.T) {
	const seeds = 100
	violations, reported := 0, 0
	firstSeed, firstGap, firstBound := int64(-1), 0, 0
	var firstHash uint64
	var firstReport error
	for seed := int64(0); seed < seeds; seed++ {
		gap, bound, hash, starved := runStarvationWorkload(t, seed, false)
		if gap > bound {
			if violations++; firstSeed < 0 {
				firstSeed, firstGap, firstBound, firstHash = seed, gap, bound, hash
			}
		}
		if starved != nil {
			if reported++; firstReport == nil {
				firstReport = starved
			}
		}
	}
	if violations == 0 && reported == 0 {
		return
	}
	replay := "no seed broke the bound"
	if firstSeed >= 0 {
		gap, _, hash, _ := runStarvationWorkload(t, firstSeed, false)
		replay = fmt.Sprintf("first seed %d: gap %d > bound %d, ", firstSeed, firstGap, firstBound)
		if gap == firstGap && hash == firstHash {
			replay += "replays identically"
		} else {
			replay += fmt.Sprintf("replay diverges (gap %d, hash %#x vs %#x)", gap, hash, firstHash)
		}
	}
	t.Fatalf("service-gap bound broken on %d/%d seeds (%s); %s reported on %d/%d seeds; first: %v",
		violations, seeds, replay, executor.ReasonFlowStarved, reported, seeds, firstReport)
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
		lightIdx := light.Index()
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
