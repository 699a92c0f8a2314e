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
// through before it builds the next in the same storage.
func TestReclaimSerializesUpdates(t *testing.T) {
	cfg := circuit.Config{Gates: 3000, Seed: 9}
	tm := sta.New(circuit.Generate("t", cfg), clock)
	ref := sta.New(circuit.Generate("t", cfg), clock)
	a := New(tm, 4)
	defer a.Close()
	if err := a.Run(tm.FullUpdate()); err != nil {
		t.Fatal(err)
	}
	rng, refRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		// Both edits go in before either update runs: editing the design
		// under a running update is the caller's race, not the analyzer's.
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
		if got, want := tf.NumNodes(), u2.NumTasks()+1; got != want {
			t.Fatalf("round %d: the next graph has %d tasks, want %d", round, got, want)
		}
		if err := tf.Dispatch().Get(); err != nil {
			t.Fatal(err)
		}
		ref.RandomModifier(refRng)
		ref.RandomModifier(refRng)
		ref.FullUpdateSequential()
		compare(t, tm, ref, "after both updates")
	}
}
