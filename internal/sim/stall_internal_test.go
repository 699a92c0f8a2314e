package sim

// White-box checks of the stall detector (stall.go): the same no-progress
// predicate the real executor.Watchdog polls (work queued, executed counter
// flat) stays silent on faithful schedules, and fires — with a
// deterministic one-line replay — when the policy livelocks. The livelock
// itself is a row of the mutation kill table (internal/mutants): the steal
// sweep blind to the injection queue, which TestStallDetectorQuietOnInjectionFanOut
// must catch.

import (
	"fmt"
	"testing"

	"gotaskflow/internal/core"
)

// stallWindowSteps is the step budget per progress check of the fan-out
// sweep. Small enough to fire long before the maxSteps livelock backstop,
// large enough that a healthy schedule always executes something in
// between.
const stallWindowSteps = 256

// dispatchFanout dispatches a source → 4-successor fan-out onto a fresh
// two-worker sim armed with the stall detector. The source enters through
// Dispatch, i.e. the injection queue. A stall ends the schedule with the
// graph unfinished, so the caller must not wait on the future then.
func dispatchFanout(seed int64) (*SimExecutor, *core.Future) {
	s := New(2, WithSeed(seed), WithStallDetector(stallWindowSteps))
	tf := core.NewShared(s)
	src := tf.Emplace(func() {})[0]
	for i := 0; i < 4; i++ {
		src.Precede(tf.Emplace(func() {})[0])
	}
	return s, tf.Dispatch()
}

// TestStallDetectorQuietOnInjectionFanOut sweeps 100 seeds of the
// injection fan-out under an armed stall detector: every schedule drains,
// conserves its tasks and reports nothing. A failure reports how many
// seeds stalled and whether the first one replays with the same schedule
// fingerprint and report.
func TestStallDetectorQuietOnInjectionFanOut(t *testing.T) {
	const seeds = 100
	stalled := 0
	var firstSeed int64 = -1
	for seed := int64(0); seed < seeds; seed++ {
		s, fut := dispatchFanout(seed)
		if s.Failure() != nil {
			if stalled++; firstSeed < 0 {
				firstSeed = seed
			}
			continue
		}
		if err := fut.Get(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Stats().Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if stalled == 0 {
		return
	}
	a, _ := dispatchFanout(firstSeed)
	b, _ := dispatchFanout(firstSeed)
	replay := "replays identically"
	if a.ScheduleHash() != b.ScheduleHash() || fmt.Sprint(a.Failure()) != fmt.Sprint(b.Failure()) {
		replay = fmt.Sprintf("replay diverges: hash %#x vs %#x", a.ScheduleHash(), b.ScheduleHash())
	}
	t.Fatalf("stall reported on %d/%d seeds of the injection fan-out; first seed %d %s: %v",
		stalled, seeds, firstSeed, replay, a.Failure())
}

// TestStallDetectorQuietOnHealthySchedules is the control: armed detector,
// correct scheduler, zero firings across workers and seeds — including the
// retry workload whose virtual-timer backoffs leave the system legitimately
// idle (empty queues disarm the detector rather than accumulate a window).
func TestStallDetectorQuietOnHealthySchedules(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(0); seed < 100; seed++ {
			s := New(workers, WithSeed(seed), WithStallDetector(64))
			if err := runRetryWorkload(t, s); err != nil {
				t.Fatalf("w%d seed %d: %v", workers, seed, err)
			}
			if err := s.Failure(); err != nil {
				t.Fatalf("w%d seed %d: false stall firing: %v", workers, seed, err)
			}
		}
	}
}
