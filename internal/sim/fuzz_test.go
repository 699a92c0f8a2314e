package sim_test

// Schedule fuzzing: the fuzz input is an interleaving seed plus
// graph-shape and fault-plan parameters, so the mutator explores the
// cross product of graph topologies, injected faults and scheduler
// interleavings. Every failure is replayable: the fuzz case fails with a
// one-line SIM_REPLAY recipe, and TestReplaySchedule re-runs exactly
// that schedule from the environment variable.
//
// Run with `make fuzz`, or directly:
//
//	go test ./internal/sim -fuzz '^FuzzSchedule$' -fuzztime 30s

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gotaskflow/internal/chaos"
	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/sim"
)

// replayEnv carries one schedule's parameters into TestReplaySchedule:
// five integers — schedSeed graphSeed workers n fault.
const replayEnv = "SIM_REPLAY"

// schedParams is one fuzz case after normalization.
type schedParams struct {
	schedSeed, graphSeed int64
	workers, n, fault    int
}

func normalize(schedSeed, graphSeed, workersRaw, nRaw, faultRaw int64) schedParams {
	abs := func(v int64) int64 {
		if v < 0 {
			v = -v
		}
		if v < 0 { // MinInt64
			v = 0
		}
		return v
	}
	return schedParams{
		schedSeed: schedSeed,
		graphSeed: graphSeed,
		workers:   1 + int(abs(workersRaw)%8),
		n:         1 + int(abs(nRaw)%64),
		fault:     int(abs(faultRaw) % 4),
	}
}

func (p schedParams) recipe() string {
	return fmt.Sprintf(
		"replay: %s='%d %d %d %d %d' go test ./internal/sim -run '^TestReplaySchedule$' -v",
		replayEnv, p.schedSeed, p.graphSeed, p.workers-1, p.n-1, p.fault)
}

// retryBudget is the retry count given to the tasks the plan marks
// retryable.
const retryBudget = 2

// schedResult captures everything two runs of the same schedule must
// agree on.
type schedResult struct {
	hash       uint64
	errText    string
	attempts   []int32
	bodies     []int32
	childRuns  int32
	stats      sim.Stats
	hardFaults int // planned Panic+Fail faults
}

// subflowShape derives the dynamic-tasking shape of a case from its graph
// seed: 0 = static graph only, 1 = every fourth task spawns independent
// children, 2 = spawned children are chained and some subflows detach.
// Shapes 1 and 2 turn spawn points into the scheduling choice steps the
// sweep explores (simCtx.target places each spawned child).
func subflowShape(graphSeed int64) int {
	shape := int(graphSeed % 3)
	if shape < 0 {
		shape += 3
	}
	return shape
}

// isSpawner reports whether task i is a subflow spawner under shape.
func isSpawner(shape, i int) bool { return shape > 0 && i%4 == 2 }

// spawnKids is the child count of spawner i, and the execution count of
// module i.
func spawnKids(i int) int { return 2 + i%3 }

// isModule reports whether task i is a module task: with bit 5 of the graph
// seed set, every fourth task (never a spawner) runs as EmplaceModule. A
// seed without the bit builds the graph it built before modules existed.
func isModule(graphSeed int64, i int) bool { return graphSeed&32 != 0 && i%4 == 1 }

// isComposed reports whether task i is a Composed task: with bit 6 of the
// graph seed set, every fourth task that is not a module or spawner composes
// a child taskflow of its own, spawnKids(i) chained nodes. A seed without
// the bit builds the graph it built before.
func isComposed(graphSeed int64, i int) bool { return graphSeed&64 != 0 && i%4 == 3 }

// isChains reports whether the case's graph is a forest of chains: with bit 7
// of the graph seed set, every task has at most one predecessor and one
// successor, so its plain links run fused (core's runLinks) and chaos
// faults and retries land inside fused runs. A seed without the bit builds the graph it built before.
func isChains(graphSeed int64) bool { return graphSeed&128 != 0 }

// fuzzModule is a module task of the fuzz graph: Start counts its
// executions, submits them as one batch through the worker's context and
// retires its own unit; each execution does its work and then retires.
type fuzzModule struct {
	started func()
	j       core.Join
	runs    []int32 // per execution
	retired int     // executions that called Done
	execs   []*executor.Runnable
}

func newFuzzModule(k int, started func()) *fuzzModule {
	m := &fuzzModule{started: started, runs: make([]int32, k)}
	for x := 0; x < k; x++ {
		m.execs = append(m.execs, executor.NewTask(func(ctx executor.Context) {
			m.runs[x]++
			m.retired++
			m.j.Done(ctx)
		}))
	}
	return m
}

func (m *fuzzModule) Start(ctx executor.Context, j core.Join) {
	m.started()
	m.j = j
	j.Add(len(m.execs))
	ctx.SubmitBatch(m.execs)
	j.Done(ctx)
}

// runSchedule executes one simulated schedule under p: a graphgen DAG
// with chaos faults injected per p.fault, retries sprinkled from the
// graph seed, all scheduling choices permuted by the schedule seed.
func runSchedule(t *testing.T, p schedParams) schedResult {
	t.Helper()
	s := sim.New(p.workers, sim.WithSeed(p.schedSeed))
	tf := core.NewShared(s)

	var in *chaos.Injector
	switch p.fault {
	case 1: // errors only
		in = chaos.New(chaos.Config{Seed: p.schedSeed ^ p.graphSeed*31, PFail: 0.15})
	case 2: // errors + panics
		in = chaos.New(chaos.Config{Seed: p.schedSeed ^ p.graphSeed*31, PFail: 0.08, PPanic: 0.07})
	case 3: // errors + virtual-clock delays
		in = chaos.New(chaos.Config{
			Seed: p.schedSeed ^ p.graphSeed*31, PFail: 0.05, PDelay: 0.25,
			MaxDelay: 2 * time.Millisecond, Sleep: s.AdvanceBy,
		})
	}

	cfg := graphgen.Config{Seed: p.graphSeed}
	if isChains(p.graphSeed) {
		cfg.MaxIn, cfg.MaxOut = 1, 1
	}
	d := graphgen.Random(p.n, cfg)
	shape := subflowShape(p.graphSeed)
	attempts := make([]int32, p.n)
	bodies := make([]int32, p.n)
	var childRuns int32
	modules := make([]*fuzzModule, p.n)
	// composed[i] counts the runs of each node of Composed task i's child.
	composed := make([][]int32, p.n)
	// early records each task that started while a module it succeeds still
	// had executions out, or before the last node of a Composed task's
	// child ran: both complete only when the work they started is done.
	var early []string
	preds := make([][]int, p.n)
	for u := 0; u < p.n; u++ {
		if isModule(p.graphSeed, u) || isComposed(p.graphSeed, u) {
			d.Successors(u, func(v int) { preds[v] = append(preds[v], u) })
		}
	}
	checkPreds := func(v int) {
		for _, u := range preds[v] {
			if m := modules[u]; m != nil && m.retired != len(m.execs) {
				early = append(early, fmt.Sprintf("task %d started with module %d at %d of %d executions", v, u, m.retired, len(m.execs)))
			}
			if c := composed[u]; c != nil && c[len(c)-1] == 0 {
				early = append(early, fmt.Sprintf("task %d started before the last node of composed task %d's child ran", v, u))
			}
		}
	}
	retryPick := rand.New(rand.NewSource(p.graphSeed + 1))
	tasks := make([]core.Task, p.n)
	for i := 0; i < p.n; i++ {
		i := i
		if isModule(p.graphSeed, i) {
			// Module task: kept chaos-free like a spawner, so its start and
			// execution counts stay exact.
			modules[i] = newFuzzModule(spawnKids(i), func() {
				checkPreds(i)
				attempts[i]++
				bodies[i]++
			})
			tasks[i] = tf.EmplaceModule(modules[i])
		} else if isComposed(p.graphSeed, i) {
			// Composed task: a chaos-free chain of its own, whose first node
			// stands for the task's body.
			kids := spawnKids(i)
			composed[i] = make([]int32, kids)
			child := core.NewShared(s)
			var prev core.Task
			for k := 0; k < kids; k++ {
				c := child.Emplace1(func() {
					if k == 0 {
						checkPreds(i)
						attempts[i]++
						bodies[i]++
					}
					composed[i][k]++
				})
				if k > 0 {
					prev.Precede(c)
				}
				prev = c
			}
			tasks[i] = tf.Composed(child)
		} else if isSpawner(shape, i) {
			// Dynamic task: the body spawns a child graph at runtime. Kept
			// chaos-free so the fault-free child-count invariant below stays
			// exact; the spawn placement itself is a seed choice step.
			kids := spawnKids(i)
			tasks[i] = tf.EmplaceSubflow(func(sf *core.Subflow) {
				checkPreds(i)
				attempts[i]++
				bodies[i]++
				var prev core.Task
				for k := 0; k < kids; k++ {
					c := sf.Emplace1(func() { childRuns++ })
					if shape == 2 && k > 0 {
						prev.Precede(c) // chained children: join order matters
					}
					prev = c
				}
				if shape == 2 && i%8 == 6 {
					sf.Detach() // detached: drains independently, holds the topology open
				}
			})
		} else {
			inner := func() { checkPreds(i); bodies[i]++ }
			var body func() error
			if in != nil {
				body = in.Wrap(fmt.Sprintf("t%d", i), inner)
			} else {
				body = func() error { inner(); return nil }
			}
			tasks[i] = tf.EmplaceErr(func() error { attempts[i]++; return body() })
			if p.fault > 0 && retryPick.Float64() < 0.2 {
				// Microsecond backoff: real time on the real pool, a virtual
				// timer here — it fires instantly in seed-chosen order.
				tasks[i] = tasks[i].Retry(retryBudget, time.Microsecond)
			}
		}
	}
	for u := 0; u < p.n; u++ {
		d.Successors(u, func(v int) { tasks[u].Precede(tasks[v]) })
	}

	// Watchdog: the simulation is deterministic, so a hang would also be
	// deterministic — convert it into a failure carrying the recipe
	// instead of a silent fuzz timeout.
	done := make(chan error, 1)
	go func() { done <- tf.Run() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("schedule did not quiesce in 60s\n%s", p.recipe())
	}

	res := schedResult{
		hash:      s.ScheduleHash(),
		attempts:  attempts,
		bodies:    bodies,
		childRuns: childRuns,
		stats:     s.Stats(),
	}
	if err != nil {
		res.errText = err.Error()
	}
	if in != nil {
		res.hardFaults = in.CountPlanned(chaos.Panic) + in.CountPlanned(chaos.Fail)
	}

	// Invariants of any schedule, faulted or not.
	if lerr := s.Failure(); lerr != nil {
		t.Fatalf("liveness failure: %v\n%s", lerr, p.recipe())
	}
	if cerr := res.stats.Check(); cerr != nil {
		t.Fatalf("%v\n%s", cerr, p.recipe())
	}
	if qerr := s.CheckQueues(); qerr != nil {
		t.Fatalf("%v\n%s", qerr, p.recipe())
	}
	if len(early) > 0 {
		t.Fatalf("%s\n%s", early[0], p.recipe())
	}
	for i, m := range modules {
		if m == nil {
			continue
		}
		for x, r := range m.runs {
			if r != bodies[i] {
				t.Fatalf("module %d execution %d ran %d times in %d starts\n%s", i, x, r, bodies[i], p.recipe())
			}
		}
	}
	for i, runs := range composed {
		// One entry per run: a node runs once, or — cancelled in the
		// middle of the child — neither it nor the rest of the chain does.
		for k, r := range runs {
			if r > 1 || (k > 0 && r > runs[k-1]) || (res.hardFaults == 0 && r != 1) {
				t.Fatalf("composed task %d: child node runs %v\n%s", i, runs, p.recipe())
			}
		}
	}
	for i, a := range attempts {
		if a > 1+retryBudget {
			t.Fatalf("task %d attempted %d times, budget %d\n%s", i, a, 1+retryBudget, p.recipe())
		}
	}
	if res.hardFaults == 0 {
		// No panic/fail faults planned: the run must succeed and every
		// task body must run exactly once.
		if err != nil {
			t.Fatalf("fault-free schedule failed: %v\n%s", err, p.recipe())
		}
		for i, b := range bodies {
			if b != 1 {
				t.Fatalf("task %d body ran %d times, want 1\n%s", i, b, p.recipe())
			}
		}
		wantKids := int32(0)
		for i := 0; i < p.n; i++ {
			if isSpawner(shape, i) {
				wantKids += int32(spawnKids(i))
			}
		}
		if childRuns != wantKids {
			t.Fatalf("subflow children ran %d times, want %d\n%s", childRuns, wantKids, p.recipe())
		}
	} else if err == nil {
		// Success despite planned hard faults: legal only if none
		// actually fired (fail-fast cancellation can skip them) — but a
		// fired Fail/Panic fault must surface in the run error.
		for _, f := range in.Triggered() {
			if f.Mode == chaos.Fail || f.Mode == chaos.Panic {
				t.Fatalf("fault %v fired but run succeeded\n%s", f, p.recipe())
			}
		}
	}
	return res
}

func FuzzSchedule(f *testing.F) {
	f.Add(int64(1), int64(7), int64(4), int64(40), int64(0))
	f.Add(int64(2), int64(11), int64(1), int64(12), int64(1))
	f.Add(int64(3), int64(13), int64(7), int64(63), int64(2))
	f.Add(int64(4), int64(17), int64(2), int64(33), int64(3))
	f.Add(int64(99), int64(0), int64(0), int64(0), int64(1))
	f.Add(int64(5), int64(14), int64(3), int64(24), int64(0)) // shape 2: chained + detached subflows
	f.Add(int64(6), int64(19), int64(2), int64(30), int64(1)) // shape 1: independent spawns under faults
	f.Add(int64(8), int64(37), int64(2), int64(40), int64(0)) // shape 1 with module tasks
	f.Fuzz(func(t *testing.T, schedSeed, graphSeed, workersRaw, nRaw, faultRaw int64) {
		p := normalize(schedSeed, graphSeed, workersRaw, nRaw, faultRaw)
		a := runSchedule(t, p)
		b := runSchedule(t, p)
		// The replay guarantee under fuzz: an identical case re-executes
		// the identical schedule with the identical outcome.
		if a.hash != b.hash {
			t.Fatalf("schedule hashes differ across identical runs: %#x vs %#x\n%s",
				a.hash, b.hash, p.recipe())
		}
		if a.errText != b.errText {
			t.Fatalf("run errors differ across identical runs:\n%q\nvs\n%q\n%s",
				a.errText, b.errText, p.recipe())
		}
		if a.childRuns != b.childRuns {
			t.Fatalf("subflow child runs differ across identical runs: %d vs %d\n%s",
				a.childRuns, b.childRuns, p.recipe())
		}
		for i := range a.attempts {
			if a.attempts[i] != b.attempts[i] {
				t.Fatalf("task %d attempts differ across identical runs: %d vs %d\n%s",
					i, a.attempts[i], b.attempts[i], p.recipe())
			}
		}
	})
}

// TestReplaySchedule re-runs one schedule from the SIM_REPLAY
// environment variable (five integers: schedSeed graphSeed workers n
// fault — the exact line a failing fuzz case or sweep prints). With the
// variable unset the test skips.
func TestReplaySchedule(t *testing.T) {
	v := os.Getenv(replayEnv)
	if v == "" {
		t.Skipf("%s not set; set it to the five integers from a failure recipe", replayEnv)
	}
	fields := strings.Fields(v)
	if len(fields) != 5 {
		t.Fatalf("%s=%q: want 5 integers (schedSeed graphSeed workers n fault)", replayEnv, v)
	}
	nums := make([]int64, 5)
	for i, f := range fields {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("%s field %d (%q): %v", replayEnv, i, f, err)
		}
		nums[i] = n
	}
	p := normalize(nums[0], nums[1], nums[2], nums[3], nums[4])
	res := runSchedule(t, p)
	t.Logf("replayed schedule: workers=%d n=%d fault=%d hash=%#x steps=%d executed=%d err=%q",
		p.workers, p.n, p.fault, res.hash, res.stats.Steps, res.stats.Executed, res.errText)
}
