package sim

// White-box validation of the stall detector (stall.go): inject the
// injection-blind steal sweep — externally submitted work visible to the park
// re-check but unreachable by any worker, a livelock — and prove the seed
// sweep detects it with a deterministic one-line replay. This is the sim
// half of the watchdog acceptance criterion: the same no-progress
// predicate the real executor.Watchdog polls (work queued, executed
// counter flat) catches an injected scheduler bug across seeds, recovery
// still drains the graph, and the healthy control never fires.

import (
	"os"
	"strconv"
	"testing"

	"gotaskflow/internal/core"
)

// stallReplayEnv carries a seed into TestStallReplay, so a sweep failure
// is replayable with one shell line.
const stallReplayEnv = "SIM_STALL_SEED"

// stallWindow is the step budget per progress check used by the tests.
// Small enough to fire long before the maxSteps livelock backstop, large
// enough that a healthy schedule always executes something in between.
const stallWindowSteps = 256

func newStallSim(seed int64) *SimExecutor {
	return New(2, WithSeed(seed), WithStallDetector(stallWindowSteps), withInjectionStallBug())
}

// runFanoutWorkload drives a source → 4-successor fan-out graph: the
// source enters through Submit, i.e. the injection queue — exactly the
// work the injected bug makes unreachable.
func runFanoutWorkload(t *testing.T, s *SimExecutor) error {
	t.Helper()
	tf := core.NewShared(s)
	src := tf.Emplace(func() {})[0]
	for i := 0; i < 4; i++ {
		src.Precede(tf.Emplace(func() {})[0])
	}
	return tf.Run()
}

func TestStallDetectorCatchesInjectedBug(t *testing.T) {
	const seeds = 100
	detected := 0
	var firstSeed int64 = -1
	for seed := int64(0); seed < seeds; seed++ {
		s := newStallSim(seed)
		if err := runFanoutWorkload(t, s); err != nil {
			t.Fatalf("seed %d: recovery did not drain the graph: %v", seed, err)
		}
		if err := s.Stats().Check(); err != nil {
			t.Fatalf("seed %d: conservation violated after stall recovery: %v", seed, err)
		}
		if s.Failure() != nil {
			detected++
			if firstSeed < 0 {
				firstSeed = seed
			}
		}
	}
	if detected == 0 {
		t.Fatalf("injected injection-stall bug never detected across %d seeds", seeds)
	}
	t.Logf("stall detected on %d/%d seeds; first at seed %d", detected, seeds, firstSeed)
	t.Logf("replay: %s=%d go test ./internal/sim -run '^TestStallReplay$' -v",
		stallReplayEnv, firstSeed)

	// Replay determinism: the first detecting seed detects again, with an
	// identical schedule fingerprint and failure report.
	a, b := newStallSim(firstSeed), newStallSim(firstSeed)
	if err := runFanoutWorkload(t, a); err != nil {
		t.Fatal(err)
	}
	if err := runFanoutWorkload(t, b); err != nil {
		t.Fatal(err)
	}
	if a.Failure() == nil || b.Failure() == nil {
		t.Fatalf("seed %d did not re-detect on replay", firstSeed)
	}
	if a.ScheduleHash() != b.ScheduleHash() {
		t.Fatalf("seed %d: schedule hashes differ across replays: %#x vs %#x",
			firstSeed, a.ScheduleHash(), b.ScheduleHash())
	}
	if a.Failure().Error() != b.Failure().Error() {
		t.Fatalf("seed %d: failure reports differ across replays:\n%v\nvs\n%v",
			firstSeed, a.Failure(), b.Failure())
	}
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

// TestStallReplay re-runs the injected-stall workload from the
// SIM_STALL_SEED environment variable — the one-line replay for sweep
// failures. Without the variable it skips.
func TestStallReplay(t *testing.T) {
	v := os.Getenv(stallReplayEnv)
	if v == "" {
		t.Skipf("%s not set; set it to a seed from a stall-sweep failure", stallReplayEnv)
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", stallReplayEnv, v, err)
	}
	s := newStallSim(seed)
	if err := runFanoutWorkload(t, s); err != nil {
		t.Fatal(err)
	}
	t.Logf("replayed stall schedule: seed=%d hash=%#x steps=%d executed=%d failure=%v",
		seed, s.ScheduleHash(), s.Stats().Steps, s.Stats().Executed, s.Failure())
	if s.Failure() == nil {
		t.Fatalf("seed %d did not reproduce the stall", seed)
	}
}
