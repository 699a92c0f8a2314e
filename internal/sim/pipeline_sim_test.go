package sim_test

// Pipeline schedule fuzzing and seed sweep: the fuzz input is an
// interleaving seed plus a pipeline shape (lines, pipe row with
// serial/parallel/data-parallel pipes, token count, deferral pattern), so
// the mutator explores pipeline wrap-arounds, fan-out joins and token
// parking under permuted schedules. Invariants checked on every schedule:
//
//   - every pipe sees every token exactly once (counting re-invocations
//     of deferred tokens separately);
//   - serial pipes observe tokens in strictly ascending order;
//   - a deferring token's completing invocation runs only after its
//     target token completed the same pipe;
//   - ForEach pipes visit every index of every token exactly once before
//     the token reaches the next pipe;
//   - sim Stats conservation (Enqueued == Executed) and liveness;
//   - composed shapes run the pipeline as a module task between two tasks:
//     no pipe runs before the predecessor, and the successor starts only
//     after the last cell retired — every token complete, no pipe after;
//   - identical cases re-execute bit-identical schedules (ScheduleHash).
//
// Failures print a one-line SIM_PIPE_REPLAY recipe;
// TestReplayPipelineSchedule re-runs exactly that schedule.
//
// Run with `make fuzz`, or directly:
//
//	go test ./internal/sim -fuzz '^FuzzPipelineSchedule$' -fuzztime 30s

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/pipeline"
	"gotaskflow/internal/sim"
)

// pipeReplayEnv carries one pipeline schedule's parameters into
// TestReplayPipelineSchedule: five integers — schedSeed shapeSeed workers
// lines tokens.
const pipeReplayEnv = "SIM_PIPE_REPLAY"

type pipeParams struct {
	schedSeed, shapeSeed   int64
	workers, lines, tokens int
}

func normalizePipe(schedSeed, shapeSeed, workersRaw, linesRaw, tokensRaw int64) pipeParams {
	abs := func(v int64) int64 {
		if v < 0 {
			v = -v
		}
		if v < 0 { // MinInt64
			v = 0
		}
		return v
	}
	return pipeParams{
		schedSeed: schedSeed,
		shapeSeed: shapeSeed,
		workers:   1 + int(abs(workersRaw)%8),
		lines:     1 + int(abs(linesRaw)%8),
		tokens:    int(abs(tokensRaw) % 96),
	}
}

func (p pipeParams) recipe() string {
	return fmt.Sprintf(
		"replay: %s='%d %d %d %d %d' go test ./internal/sim -run '^TestReplayPipelineSchedule$' -v",
		pipeReplayEnv, p.schedSeed, p.shapeSeed, p.workers-1, p.lines-1, p.tokens)
}

// pipeShape derives the pipe row from the shape seed: 2–5 pipes after the
// serial head, each serial, parallel, or (at most one) data-parallel;
// plus a deferral pattern on one parallel pipe (every third token defers
// to token−gap). The composedBit of the shape seed runs the same row as a
// module task between two tasks of a taskflow.
type pipeShape struct {
	types    []pipeline.Type // len = pipe count; types[0] == Serial
	dpPipe   int             // index of the ForEach pipe, -1 if none
	dpRange  int
	deferOn  int // index of the deferring parallel pipe, -1 if none
	deferGap int64
	composed bool
}

// composedBit marks a composed shape; the rest of the seed picks the row.
const composedBit = 1 << 20

func shapeOf(p pipeParams) pipeShape {
	s := p.shapeSeed
	if s < 0 {
		s = -s
	}
	if s < 0 {
		s = 0
	}
	composed := s&composedBit != 0
	s &^= composedBit
	numPipes := 3 + int(s%4) // 3..6 pipes total
	sh := pipeShape{types: make([]pipeline.Type, numPipes), dpPipe: -1, deferOn: -1, composed: composed}
	bits := s / 4
	for i := 1; i < numPipes; i++ {
		if bits&1 == 1 {
			sh.types[i] = pipeline.Parallel
		}
		bits >>= 1
	}
	if s%3 == 0 && numPipes > 2 {
		// One data-parallel pipe mid-row; keep its declared type.
		sh.dpPipe = 1 + int((s/16)%int64(numPipes-1))
		sh.dpRange = 8 + int(s%23)
	}
	// Deferral on the first parallel scalar pipe, when one exists.
	for i := 1; i < numPipes; i++ {
		if sh.types[i] == pipeline.Parallel && i != sh.dpPipe {
			sh.deferOn = i
			sh.deferGap = 1 + s%3
			break
		}
	}
	return sh
}

// pipeResult captures everything two runs of the same case must agree on.
type pipeResult struct {
	hash      uint64
	processed int64
	errText   string
	stats     sim.Stats
}

// runPipelineSchedule executes one simulated pipeline schedule and checks
// every invariant; returns the fingerprint for double-run comparison.
func runPipelineSchedule(t *testing.T, p pipeParams) pipeResult {
	t.Helper()
	s := sim.New(p.workers, sim.WithSeed(p.schedSeed))
	sh := shapeOf(p)
	n := int64(p.tokens)

	// Recording state. The simulation is single-threaded, so plain maps
	// and slices need no locking.
	order := make([][]int64, len(sh.types))              // per-pipe invocation order
	completedAt := make([]map[int64]bool, len(sh.types)) // pipe → tokens completed
	for i := range completedAt {
		completedAt[i] = map[int64]bool{}
	}
	sawTarget := map[int64]bool{} // deferring token → target done at last invocation
	dpVisits := map[int64][]int{} // token → per-index visit count at the dp pipe
	// Composed shapes: whether the predecessor and the successor ran, and
	// the first ordering violation against them.
	var predRan, succRan bool
	var misorder string
	body := func(pipe int, tok int64) {
		switch {
		case !sh.composed:
		case !predRan && misorder == "":
			misorder = fmt.Sprintf("pipe %d ran token %d before the predecessor", pipe, tok)
		case succRan && misorder == "":
			misorder = fmt.Sprintf("pipe %d ran token %d after the successor started", pipe, tok)
		}
	}

	pipes := make([]pipeline.Pipe, len(sh.types))
	for i := range pipes {
		i := i
		if i == sh.dpPipe {
			pipes[i] = pipeline.ForEach(sh.types[i],
				func(*pipeline.Pipeflow) int { return sh.dpRange },
				3, pipeline.Guided,
				func(pf *pipeline.Pipeflow, begin, end int) {
					body(i, pf.Token())
					c := dpVisits[pf.Token()]
					if c == nil {
						c = make([]int, sh.dpRange)
						dpVisits[pf.Token()] = c
					}
					for k := begin; k < end; k++ {
						c[k]++
					}
				})
			continue
		}
		pipes[i] = pipeline.Pipe{Type: sh.types[i], Fn: func(pf *pipeline.Pipeflow) {
			tok := pf.Token()
			body(i, tok)
			if i == 0 {
				if tok >= n {
					pf.Stop()
					return
				}
				order[0] = append(order[0], tok)
				completedAt[0][tok] = true
				return
			}
			order[i] = append(order[i], tok)
			if i == sh.deferOn && tok%3 == 0 && tok >= sh.deferGap {
				target := tok - sh.deferGap
				// A Defer whose target already completed does not park, so
				// this invocation is the completing one exactly when the
				// target is done. Last write wins on sawTarget: the final
				// invocation records whether ordering held.
				done := completedAt[i][target]
				sawTarget[tok] = done
				pf.Defer(target)
				if done {
					completedAt[i][tok] = true
				}
				return
			}
			completedAt[i][tok] = true
		}}
	}

	pl := pipeline.New(s, p.lines, pipes...)
	var processed int64
	var err error
	if sh.composed {
		tf := core.NewShared(s)
		pred := tf.Emplace1(func() { predRan = true })
		succ := tf.Emplace1(func() {
			succRan = true
			if got := pl.Stats().Tokens; got != n && misorder == "" {
				misorder = fmt.Sprintf("the successor started with %d of %d tokens retired", got, n)
			}
		})
		pred.Precede(tf.EmplaceModule(pl).Precede(succ))
		err = tf.Run()
		processed = pl.Stats().Tokens
		if !succRan && err == nil {
			misorder = "the successor never ran"
		}
	} else {
		processed = pl.Run()
		err = pl.Err()
	}
	res := pipeResult{
		hash:      s.ScheduleHash(),
		processed: processed,
		stats:     s.Stats(),
	}
	if err != nil {
		res.errText = err.Error()
	}

	// Liveness and conservation first: a stuck or leaky schedule makes
	// the rest meaningless.
	if lerr := s.Failure(); lerr != nil {
		t.Fatalf("liveness failure: %v\n%s", lerr, p.recipe())
	}
	if cerr := res.stats.Check(); cerr != nil {
		t.Fatalf("%v\n%s", cerr, p.recipe())
	}
	if res.errText != "" {
		t.Fatalf("fault-free pipeline failed: %s\n%s", res.errText, p.recipe())
	}
	if processed != n {
		t.Fatalf("processed %d tokens, want %d\n%s", processed, n, p.recipe())
	}
	if misorder != "" {
		t.Fatalf("composed pipeline: %s\n%s", misorder, p.recipe())
	}

	// Every pipe sees every token; serial pipes in strictly ascending
	// order. Deferred tokens re-invoke, so expect duplicates only there.
	for i, seq := range order {
		if i == sh.dpPipe {
			continue // covered by the dpVisits check below
		}
		seen := map[int64]int{}
		for _, tok := range seq {
			seen[tok]++
		}
		if int64(len(seen)) != n {
			t.Fatalf("pipe %d saw %d distinct tokens, want %d\n%s", i, len(seen), n, p.recipe())
		}
		for tok, c := range seen {
			if c > 1 && i != sh.deferOn {
				t.Fatalf("pipe %d token %d invoked %d times without deferral\n%s", i, tok, c, p.recipe())
			}
		}
		if sh.types[i] == pipeline.Serial && i != sh.deferOn && i != sh.dpPipe {
			for j := 1; j < len(seq); j++ {
				if seq[j] <= seq[j-1] {
					t.Fatalf("serial pipe %d order broken at %d: %v\n%s", i, j, seq, p.recipe())
				}
			}
		}
	}

	// Deferral ordering: the completing invocation of every deferring
	// token ran with its target already completed.
	if sh.deferOn >= 0 {
		for tok := sh.deferGap; tok < n; tok++ {
			if tok%3 == 0 {
				if !sawTarget[tok] {
					t.Fatalf("token %d completed pipe %d before its deferred target %d\n%s",
						tok, sh.deferOn, tok-sh.deferGap, p.recipe())
				}
			}
		}
	}

	// ForEach coverage: every index of every token exactly once.
	if sh.dpPipe >= 0 {
		if int64(len(dpVisits)) != n {
			t.Fatalf("dp pipe fanned out %d tokens, want %d\n%s", len(dpVisits), n, p.recipe())
		}
		for tok, c := range dpVisits {
			for k, v := range c {
				if v != 1 {
					t.Fatalf("dp pipe token %d index %d visited %d times\n%s", tok, k, v, p.recipe())
				}
			}
		}
	}
	return res
}

func FuzzPipelineSchedule(f *testing.F) {
	f.Add(int64(1), int64(0), int64(3), int64(3), int64(40))              // dp pipe, 3 pipes
	f.Add(int64(2), int64(7), int64(1), int64(0), int64(25))              // 1 line: pure serial threading
	f.Add(int64(3), int64(12), int64(7), int64(7), int64(90))             // dp + defer, 8 lines
	f.Add(int64(4), int64(5), int64(2), int64(3), int64(64))              // wrap boundary: tokens % lines == 0
	f.Add(int64(5), int64(23), int64(4), int64(1), int64(0))              // zero tokens
	f.Add(int64(6), int64(46), int64(5), int64(5), int64(77))             // parallel-heavy row
	f.Add(int64(7), int64(12|composedBit), int64(3), int64(3), int64(50)) // dp + defer, between two tasks
	f.Fuzz(func(t *testing.T, schedSeed, shapeSeed, workersRaw, linesRaw, tokensRaw int64) {
		p := normalizePipe(schedSeed, shapeSeed, workersRaw, linesRaw, tokensRaw)
		a := runPipelineSchedule(t, p)
		b := runPipelineSchedule(t, p)
		if a.hash != b.hash {
			t.Fatalf("schedule hashes differ across identical runs: %#x vs %#x\n%s",
				a.hash, b.hash, p.recipe())
		}
		if a.processed != b.processed || a.errText != b.errText {
			t.Fatalf("outcomes differ across identical runs: (%d,%q) vs (%d,%q)\n%s",
				a.processed, a.errText, b.processed, b.errText, p.recipe())
		}
	})
}

// TestPropertyPipelineSimSweep is the deterministic always-on slice of
// the fuzz space: 240 seeds across worker counts, line counts and shape
// seeds, alone and composed between two tasks, every invariant from
// runPipelineSchedule checked on each.
func TestPropertyPipelineSimSweep(t *testing.T) {
	count := 0
	for schedSeed := int64(0); schedSeed < 10; schedSeed++ {
		for _, workers := range []int{1, 3, 8} {
			for _, lines := range []int{1, 4} {
				for _, shapeSeed := range []int64{0, 9, composedBit, 9 | composedBit} {
					p := pipeParams{
						schedSeed: schedSeed,
						shapeSeed: shapeSeed,
						workers:   workers,
						lines:     lines,
						tokens:    int(17 + schedSeed*7 + int64(lines)*4),
					}
					runPipelineSchedule(t, p)
					count++
				}
			}
		}
	}
	t.Logf("swept %d pipeline schedules", count)
}

// TestReplayPipelineSchedule re-runs one pipeline schedule from the
// SIM_PIPE_REPLAY environment variable (five integers: schedSeed
// shapeSeed workers lines tokens — the exact line a failing case
// prints). With the variable unset the test skips.
func TestReplayPipelineSchedule(t *testing.T) {
	v := os.Getenv(pipeReplayEnv)
	if v == "" {
		t.Skipf("%s not set; set it to the five integers from a failure recipe", pipeReplayEnv)
	}
	fields := strings.Fields(v)
	if len(fields) != 5 {
		t.Fatalf("%s=%q: want 5 integers (schedSeed shapeSeed workers lines tokens)", pipeReplayEnv, v)
	}
	nums := make([]int64, 5)
	for i, f := range fields {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("%s field %d (%q): %v", pipeReplayEnv, i, f, err)
		}
		nums[i] = n
	}
	p := normalizePipe(nums[0], nums[1], nums[2], nums[3], nums[4])
	res := runPipelineSchedule(t, p)
	t.Logf("replayed pipeline schedule: workers=%d lines=%d tokens=%d hash=%#x steps=%d executed=%d",
		p.workers, p.lines, p.tokens, res.hash, res.stats.Steps, res.stats.Executed)
}
