package stav2

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gotaskflow/internal/circuit"
	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sta"
)

const clock = 2000.0

func compare(t *testing.T, got, ref *sta.Timing, label string) {
	t.Helper()
	for v := range got.Ckt.Gates {
		for tr := 0; tr < 2; tr++ {
			if got.Arrival[tr][v] != ref.Arrival[tr][v] {
				t.Fatalf("%s: arrival[%d][%d] = %v, want %v", label, tr, v, got.Arrival[tr][v], ref.Arrival[tr][v])
			}
			if got.Slew[tr][v] != ref.Slew[tr][v] {
				t.Fatalf("%s: slew[%d][%d] mismatch", label, tr, v)
			}
			if got.Required[tr][v] != ref.Required[tr][v] {
				t.Fatalf("%s: required[%d][%d] = %v, want %v", label, tr, v, got.Required[tr][v], ref.Required[tr][v])
			}
			if got.Slack[tr][v] != ref.Slack[tr][v] {
				t.Fatalf("%s: slack[%d][%d] mismatch", label, tr, v)
			}
			if got.EarlyArrival[tr][v] != ref.EarlyArrival[tr][v] {
				t.Fatalf("%s: early arrival[%d][%d] mismatch", label, tr, v)
			}
			if got.EarlySlack[tr][v] != ref.EarlySlack[tr][v] {
				t.Fatalf("%s: early slack[%d][%d] mismatch", label, tr, v)
			}
		}
	}
}

func TestFullUpdateMatchesSequential(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1500, Seed: 8})
	tm := sta.New(ckt, clock)
	a := New(tm, 4)
	defer a.Close()
	a.Run(tm.FullUpdate())

	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "full")
}

func TestIncrementalMatchesSequential(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1000, Seed: 17})
	tm := sta.New(ckt, clock)
	a := New(tm, 4)
	defer a.Close()
	a.Run(tm.FullUpdate())

	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		seeds := tm.RandomModifier(rng)
		if len(seeds) == 0 {
			continue
		}
		a.Run(tm.PrepareUpdate(seeds))
		ref := sta.New(ckt, clock)
		ref.FullUpdateSequential()
		compare(t, tm, ref, "incremental")
	}
}

func TestV1V2Agree(t *testing.T) {
	// The paper's central claim setup: v1 and v2 compute identical timing.
	ckt1 := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 33})
	ckt2 := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 33})
	tm2 := sta.New(ckt2, clock)
	a2 := New(tm2, 2)
	defer a2.Close()
	a2.Run(tm2.FullUpdate())

	ref := sta.New(ckt1, clock)
	ref.FullUpdateSequential()
	compare(t, tm2, ref, "v2-vs-seq")
}

func TestSharedExecutor(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	ckt := circuit.Generate("t", circuit.Config{Gates: 300, Seed: 3})
	tm := sta.New(ckt, clock)
	a := NewShared(tm, e)
	a.Run(tm.FullUpdate())
	if a.NumWorkers() != 2 {
		t.Fatalf("NumWorkers = %d", a.NumWorkers())
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "shared")
}

func TestTaskflowDumpFigure8(t *testing.T) {
	// The paper's Figure 8: the task dependency graph of a single timing
	// update on the sample circuit. The golden file was dumped when every
	// update had a Taskflow, closures and name strings of its own; the
	// analyzer's second graph, built in recycled nodes, must dump the same.
	want, err := os.ReadFile("testdata/figure8.dot")
	if err != nil {
		t.Fatal(err)
	}
	ckt := circuit.Figure8()
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	for _, pass := range []string{"first graph", "recycled graph"} {
		tf := a.Taskflow(tm.FullUpdate())
		var sb strings.Builder
		if err := tf.Dump(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Fatalf("%s: dump differs from testdata/figure8.dot:\n%s", pass, sb.String())
		}
		if err := tf.Reclaim(); err != nil {
			t.Fatal(err)
		}
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "figure8")
}

func TestRepeatedIncrementalStress(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 2000, Seed: 77})
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	a.Run(tm.FullUpdate())
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 100; iter++ {
		seeds := tm.RandomModifier(rng)
		if len(seeds) == 0 {
			continue
		}
		a.Run(tm.PrepareUpdate(seeds))
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "stress")
}

// 300 seeded edits through one analyzer, each checked against a second
// timer that takes the same edit and is then timed from scratch on this
// goroutine: graphs built in recycled storage must compute what fresh ones
// do.
func TestReclaimedGraphsMatchSequential(t *testing.T) {
	cfg := circuit.Config{Gates: 1000, Seed: 41}
	tm := sta.New(circuit.Generate("t", cfg), clock)
	ref := sta.New(circuit.Generate("t", cfg), clock)
	a := New(tm, 4)
	defer a.Close()
	if err := a.Run(tm.FullUpdate()); err != nil {
		t.Fatal(err)
	}
	rng, refRng := rand.New(rand.NewSource(29)), rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		u := tm.PrepareUpdate(tm.RandomModifier(rng))
		var err error
		if i%2 == 0 {
			err = a.Run(u)
		} else {
			err = a.Taskflow(u).Dispatch().Get()
		}
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		ref.RandomModifier(refRng)
		ref.FullUpdateSequential()
		compare(t, tm, ref, fmt.Sprintf("edit %d", i))
	}
}

// The analyzer applies one update at a time: a Taskflow call finds the
// previous update's graph running, or built and never launched, and sees it
// through before it builds the next in the same storage. The next graph has
// a task per level slice and the barrier: a task per gate propagation on a
// pool wide enough that no level is cut (64 workers: 256 gates a level),
// fewer on a small one.
func TestReclaimSerializesUpdates(t *testing.T) {
	for _, workers := range []int{4, 64} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			cfg := circuit.Config{Gates: 3000, Seed: 9}
			tm := sta.New(circuit.Generate("t", cfg), clock)
			ref := sta.New(circuit.Generate("t", cfg), clock)
			a := New(tm, workers)
			defer a.Close()
			if err := a.Run(tm.FullUpdate()); err != nil {
				t.Fatal(err)
			}
			rng, refRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			for round := 0; round < 8; round++ {
				// Both edits go in before either update runs: editing the
				// design under a running update is the caller's race, not
				// the analyzer's.
				s1, s2 := tm.RandomModifier(rng), tm.RandomModifier(rng)
				u1, u2 := tm.PrepareUpdate(s1), tm.PrepareUpdate(s2)
				tf := a.Taskflow(u1)
				var first *core.Future
				if round%2 == 0 {
					first = tf.Dispatch() // launched, not waited for
				} // else: built, not even launched
				tf = a.Taskflow(u2)
				if first != nil {
					select {
					case <-first.Done():
					default:
						t.Fatalf("round %d: Taskflow returned the next graph while the previous update still runs", round)
					}
				}
				got, most := tf.NumNodes(), u2.NumTasks()+1
				if got <= 1 || got > most || (workers == 64 && got != most) {
					t.Fatalf("round %d: the next graph has %d tasks for %d propagations and the barrier", round, got, most-1)
				}
				if err := tf.Dispatch().Get(); err != nil {
					t.Fatal(err)
				}
				ref.RandomModifier(refRng)
				ref.RandomModifier(refRng)
				ref.FullUpdateSequential()
				compare(t, tm, ref, "after both updates")
			}
		})
	}
}

// TestSliceLaw checks every update graph against the netlist it was cut
// from: each cone gate sits in exactly one slice, a slice holds gates of one
// level in the order the update lists them, no level is cut into more than
// four slices per worker, slices are emplaced level by level (so every edge
// follows emplace order and dispatch needs no cycle search), and the graph's
// edges are exactly the cone's edges between slices, the forward sinks into
// the barrier and the barrier into the backward sources — each once.
func TestSliceLaw(t *testing.T) {
	for _, gates := range []int{1000, 3000} {
		for _, workers := range []int{1, 2, 4, 64} {
			t.Run(fmt.Sprintf("gates=%d/W=%d", gates, workers), func(t *testing.T) {
				cfg := circuit.Config{Gates: gates, Seed: int64(gates)}
				tm := sta.New(circuit.Generate("t", cfg), clock)
				ref := sta.New(circuit.Generate("t", cfg), clock)
				a := New(tm, workers)
				defer a.Close()
				full := tm.FullUpdate()
				checkSlices(t, a, full, a.Taskflow(full))
				rng, refRng := rand.New(rand.NewSource(61)), rand.New(rand.NewSource(61))
				for i := 0; i < 50; i++ {
					u := tm.PrepareUpdate(tm.RandomModifier(rng))
					tf := a.Taskflow(u)
					checkSlices(t, a, u, tf)
					if err := tf.Dispatch().Get(); err != nil {
						t.Fatalf("edit %d: %v", i, err)
					}
					ref.RandomModifier(refRng)
					ref.FullUpdateSequential()
					compare(t, tm, ref, fmt.Sprintf("edit %d", i))
				}
			})
		}
	}
}

// checkSlices holds the graph tf, just built by a for u, to TestSliceLaw's
// rules. Levels are recomputed here from the gates' fan-in lists. Every
// task's successor and dependent counts are checked against the cone, and
// the edges themselves are read back from the DOT dump, where a forward
// slice goes by its first gate's name and a backward one by that name
// primed, and the tasks are listed in emplace order.
func checkSlices(t *testing.T, a *Analyzer, u sta.Update, tf *core.Taskflow) {
	t.Helper()
	g := a.T.Ckt.Gates
	level := make([]int, len(g))
	for v, gate := range g {
		for _, f := range gate.Fanin {
			level[v] = max(level[v], level[f]+1)
		}
	}
	if got, want := len(a.cone), u.NumTasks(); got != want {
		t.Fatalf("the slices hold %d gates, the update lists %d", got, want)
	}
	n := len(a.start) - 1 // slices; ordinal n stands for the barrier below
	nFwd := 0
	for nFwd < n && int(a.start[nFwd]) < len(u.Fwd) {
		nFwd++
	}
	if got := tf.NumNodes(); got != n+1 {
		t.Fatalf("%d tasks for %d slices and the barrier", got, n)
	}

	want := map[[2]int]bool{}
	sliceOf := make([]int, len(g))
	pass := func(gates []int, lo, hi, sign int) {
		for v := range sliceOf {
			sliceOf[v] = -1
		}
		perLevel := map[int]int{}
		for k := lo; k < hi; k++ {
			first := int(a.cone[a.start[k]])
			perLevel[level[first]]++
			if last := int(a.cone[max(a.start[k], 1)-1]); k > lo && sign*level[first] < sign*level[last] {
				t.Fatalf("slice %d of level %d is emplaced after a slice of level %d", k, level[first], level[last])
			}
			for _, v := range a.cone[a.start[k]:a.start[k+1]] {
				if level[v] != level[first] {
					t.Fatalf("slice %d mixes levels %d and %d", k, level[first], level[v])
				}
				if sliceOf[v] >= 0 {
					t.Fatalf("gate %d is in slices %d and %d", v, sliceOf[v], k)
				}
				sliceOf[v] = k
			}
		}
		for l, slices := range perLevel {
			if slices > 4*a.NumWorkers() {
				t.Fatalf("level %d is cut into %d slices on %d workers", l, slices, a.NumWorkers())
			}
		}
		// As many positions as listed gates, no gate twice, every listed
		// gate placed: each exactly once. A level keeps the pass's order.
		if got := int(a.start[hi] - a.start[lo]); got != len(gates) {
			t.Fatalf("slices %d..%d hold %d gates, the pass lists %d", lo, hi, got, len(gates))
		}
		next := map[int]int32{} // level -> position of its next gate
		for k := hi - 1; k >= lo; k-- {
			next[level[a.cone[a.start[k]]]] = a.start[k]
		}
		for _, v := range gates {
			if sliceOf[v] < 0 {
				t.Fatalf("gate %d is in no slice", v)
			}
			if at := next[level[v]]; int(a.cone[at]) != v {
				t.Fatalf("level %d holds gate %d where the pass lists %d next", level[v], a.cone[at], v)
			}
			next[level[v]]++
		}
		for k := lo; k < hi; k++ {
			alone := true
			for _, v := range a.cone[a.start[k]:a.start[k+1]] {
				for _, w := range g[v].Fanout {
					if j := sliceOf[w]; j >= 0 {
						alone = false
						want[[2]int{k, j}] = true
					}
				}
			}
			if alone {
				want[[2]int{k, n}] = true
			}
		}
	}
	pass(u.Fwd, 0, nFwd, +1)
	pass(u.Bwd, nFwd, n, -1)

	// want holds each edge from its fan-in side; the backward pass's run the
	// other way.
	succ, deps := make([]int, n+1), make([]int, n+1)
	for e := range want {
		if e[0] >= nFwd {
			e[0], e[1] = e[1], e[0]
		}
		succ[e[0]]++
		deps[e[1]]++
	}
	for k := 0; k < n; k++ {
		if s, d := a.tasks[k].NumSuccessors(), a.tasks[k].NumDependents(); s != succ[k] || d != deps[k] {
			t.Fatalf("slice %d has %d successors and %d dependents, the cone asks for %d and %d", k, s, d, succ[k], deps[k])
		}
	}
	if err := tf.Validate(); err != nil {
		t.Fatal(err)
	}

	ordinal := map[string]int{"fwd_bwd_barrier": n}
	for k := 0; k < n; k++ {
		name := g[a.cone[a.start[k]]].Name
		if k >= nFwd {
			name += "'"
		}
		ordinal[name] = k
	}
	var sb strings.Builder
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	edges, emplaced := 0, map[string]int{}
	for _, line := range strings.Split(sb.String(), "\n") {
		line = strings.TrimSuffix(strings.TrimSpace(line), ";")
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			if strings.HasPrefix(line, `"`) {
				emplaced[line] = len(emplaced)
			}
			continue
		}
		if emplaced[from] >= emplaced[to] {
			t.Fatalf("the edge %s -> %s runs against emplace order", from, to)
		}
		edges++
		e := [2]int{ordinal[strings.Trim(from, `"`)], ordinal[strings.Trim(to, `"`)]}
		if e[0] >= nFwd {
			e[0], e[1] = e[1], e[0]
		}
		if !want[e] {
			t.Fatalf("the graph has an edge %s -> %s that no cone edge asks for", from, to)
		}
	}
	if edges != len(want) {
		t.Fatalf("the graph has %d edges, the cone's edges between slices number %d", edges, len(want))
	}
}
