package stav1

import (
	"math/rand"
	"testing"

	"gotaskflow/internal/circuit"
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

func TestSingleThread(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 400, Seed: 2})
	tm := sta.New(ckt, clock)
	a := New(tm, 1)
	defer a.Close()
	a.Run(tm.FullUpdate())
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "1-thread")
	if a.team.NumThreads() != 1 {
		t.Fatalf("NumThreads = %d", a.team.NumThreads())
	}
}

func TestRepeatedRunsStable(t *testing.T) {
	// Running the same update twice must be idempotent (scratch state
	// fully unwound between runs).
	ckt := circuit.Figure8()
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	a.Run(tm.FullUpdate())
	var first [2][]float64
	for tr := 0; tr < 2; tr++ {
		first[tr] = append([]float64(nil), tm.Slack[tr]...)
	}
	a.Run(tm.FullUpdate())
	for tr := 0; tr < 2; tr++ {
		for v := range first[tr] {
			if tm.Slack[tr][v] != first[tr][v] {
				t.Fatalf("slack[%d][%d] drifted on re-run", tr, v)
			}
		}
	}
}
