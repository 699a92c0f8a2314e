package chaos

// Seed-replay plumbing for the chaos suite. Every stress case derives its
// fault plan and scheduler seed from one int64; when a case fails, the
// test prints a single copy-pasteable line (see Recipe) that re-runs
// exactly that case, and CHAOS_SEED pins the whole suite to one seed for
// the replay run.

import (
	"fmt"
	"os"
	"strconv"
)

// seedEnv is the environment variable that pins the chaos suite to a
// single seed: `CHAOS_SEED=17 go test ./internal/chaos -run <case>`
// replays the fault plan and scheduler seeding of seed 17 only.
const seedEnv = "CHAOS_SEED"

// Seeds returns the seed sweep for a stress case: 0..n-1 by default, or
// just the pinned seed when the CHAOS_SEED environment variable is set.
// A malformed CHAOS_SEED panics rather than silently sweeping — a replay
// run must never fan back out.
func Seeds(n int) []int64 {
	if v := os.Getenv(seedEnv); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("chaos: %s=%q is not an int64: %v", seedEnv, v, err))
		}
		return []int64{seed}
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// Recipe formats the one-line replay recipe printed by failing chaos and
// simulation stress cases: the seed, worker count and graph identity,
// plus the exact command that re-runs only the failing case. Everything
// needed to reproduce the failure deterministically fits in the one line.
func Recipe(testPattern string, pkg string, seed int64, workers int, graph string) string {
	return fmt.Sprintf(
		"replay: seed=%d workers=%d graph=%s → %s=%d go test %s -run '%s' -count=1",
		seed, workers, graph, seedEnv, seed, pkg, testPattern)
}
