package sta

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gotaskflow/internal/celllib"
	"gotaskflow/internal/circuit"
)

const clock = 2000.0

func TestFullUpdateFigure8(t *testing.T) {
	ckt := circuit.Figure8()
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	for v, g := range ckt.Gates {
		for tr := 0; tr < ntr; tr++ {
			if math.IsNaN(tm.Arrival[tr][v]) || math.IsInf(tm.Arrival[tr][v], 0) {
				t.Fatalf("gate %s arrival[%d] = %v", g.Name, tr, tm.Arrival[tr][v])
			}
			if g.Kind == circuit.PI && tm.Arrival[tr][v] != 0 {
				t.Fatalf("PI %s arrival = %v", g.Name, tm.Arrival[tr][v])
			}
			if tm.Slew[tr][v] <= 0 {
				t.Fatalf("gate %s slew = %v", g.Name, tm.Slew[tr][v])
			}
			if got := tm.Required[tr][v] - tm.Arrival[tr][v]; math.Abs(got-tm.Slack[tr][v]) > 1e-12 {
				t.Fatalf("gate %s slack inconsistent", g.Name)
			}
		}
	}
	ws, at := tm.WorstSlack()
	if at < 0 || !ckt.Gates[at].IsEnd() {
		t.Fatalf("worst slack at non-endpoint %d", at)
	}
	if ws >= clock {
		t.Fatalf("worst slack %v >= clock period; no delay accumulated?", ws)
	}
}

func TestRiseFallDiffer(t *testing.T) {
	// The fall tables are faster, so the two transitions must produce
	// different arrivals downstream of any gate.
	ckt := circuit.Figure8()
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	var diff bool
	for v, g := range ckt.Gates {
		if g.Kind == circuit.Comb && tm.Arrival[0][v] != tm.Arrival[1][v] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("rise and fall arrivals identical everywhere")
	}
}

func TestNegativeUnateSwapsTransitions(t *testing.T) {
	// A lone inverter: output rise arrival must derive from the input's
	// FALL arrival (negative unate).
	lib := celllib.NewNanGate45Like()
	c := &circuit.Circuit{Name: "inv", Lib: lib}
	addGate := func(name string, kind circuit.Kind, cell *celllib.Cell) int {
		g := &circuit.Gate{ID: len(c.Gates), Name: name, Kind: kind, Cell: cell, WireCap: 1}
		c.Gates = append(c.Gates, g)
		return g.ID
	}
	pi := addGate("in", circuit.PI, nil)
	inv := addGate("inv", circuit.Comb, lib.Cell("INV_X1"))
	po := addGate("out", circuit.PO, nil)
	c.Gates[pi].Fanout = append(c.Gates[pi].Fanout, int32(inv))
	c.Gates[inv].Fanin = append(c.Gates[inv].Fanin, int32(pi))
	c.Gates[inv].Fanout = append(c.Gates[inv].Fanout, int32(po))
	c.Gates[po].Fanin = append(c.Gates[po].Fanin, int32(inv))

	tm := New(c, clock)
	tm.FullUpdateSequential()
	arc := &lib.Cell("INV_X1").Arcs[0]
	load := tm.Load[inv]
	wantRise := arc.DelayRise.Lookup(tm.InputSlew, load) // from input fall
	wantFall := arc.DelayFall.Lookup(tm.InputSlew, load)
	if math.Abs(tm.Arrival[int(celllib.Rise)][inv]-wantRise) > 1e-9 {
		t.Fatalf("inv rise arrival = %v, want %v", tm.Arrival[0][inv], wantRise)
	}
	if math.Abs(tm.Arrival[int(celllib.Fall)][inv]-wantFall) > 1e-9 {
		t.Fatalf("inv fall arrival = %v, want %v", tm.Arrival[1][inv], wantFall)
	}
	// Forbidden unate combinations must be NaN in the delay store.
	if !math.IsNaN(tm.Delay[inv][delayIndex(0, celllib.Rise, celllib.Rise)]) {
		t.Fatal("rise->rise through an inverter should be NaN")
	}
	if math.IsNaN(tm.Delay[inv][delayIndex(0, celllib.Fall, celllib.Rise)]) {
		t.Fatal("fall->rise through an inverter should be valid")
	}
}

func TestArrivalMonotoneAlongEdges(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1000, Seed: 3})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	for u, g := range ckt.Gates {
		// The earliest output transition of a gate cannot be earlier than
		// the earliest arrival at its driver (positive delays).
		for _, wi := range g.Fanout {
			w := int(wi)
			minU := math.Min(tm.Arrival[0][u], tm.Arrival[1][u])
			minW := math.Min(tm.Arrival[0][w], tm.Arrival[1][w])
			if minW < minU-1e-9 {
				t.Fatalf("arrival decreases along %d->%d: %v -> %v", u, w, minU, minW)
			}
		}
	}
}

func TestCriticalPath(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 2000, Seed: 9})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	path := tm.CriticalPath()
	if len(path) < 2 {
		t.Fatalf("critical path too short: %v", path)
	}
	if !ckt.Gates[path[0]].IsStart() {
		t.Fatalf("critical path starts at %s (%s)", ckt.Gates[path[0]].Name, ckt.Gates[path[0]].Kind)
	}
	if !ckt.Gates[path[len(path)-1]].IsEnd() {
		t.Fatal("critical path does not end at an endpoint")
	}
	for i := 0; i+1 < len(path); i++ {
		connected := false
		for _, w := range ckt.Gates[path[i]].Fanout {
			if int(w) == path[i+1] {
				connected = true
			}
		}
		if !connected {
			t.Fatalf("path hop %d->%d not an edge", path[i], path[i+1])
		}
	}
	_, at := tm.WorstSlack()
	if path[len(path)-1] != at {
		t.Fatalf("path endpoint %d != worst endpoint %d", path[len(path)-1], at)
	}
}

func TestResizeChangesTiming(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 500, Seed: 6})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	before, _ := tm.WorstSlack()
	for _, v := range tm.CriticalPath() {
		if ckt.Gates[v].Kind == circuit.Comb {
			tm.ResizeGate(v, +1)
		}
	}
	tm.FullUpdateSequential()
	after, _ := tm.WorstSlack()
	if after == before {
		t.Fatal("resizing critical path did not change worst slack")
	}
}

// equalState compares every timing quantity of two engines exactly.
func equalState(t *testing.T, label string, a, b *Timing) {
	t.Helper()
	for v := range a.Ckt.Gates {
		if a.Load[v] != b.Load[v] {
			t.Fatalf("%s: load[%d] mismatch", label, v)
		}
		for tr := 0; tr < ntr; tr++ {
			if a.Arrival[tr][v] != b.Arrival[tr][v] {
				t.Fatalf("%s: arrival[%d][%d] = %v, want %v", label, tr, v, a.Arrival[tr][v], b.Arrival[tr][v])
			}
			if a.Slew[tr][v] != b.Slew[tr][v] {
				t.Fatalf("%s: slew[%d][%d] mismatch", label, tr, v)
			}
			if a.Required[tr][v] != b.Required[tr][v] {
				t.Fatalf("%s: required[%d][%d] mismatch", label, tr, v)
			}
			if a.Slack[tr][v] != b.Slack[tr][v] {
				t.Fatalf("%s: slack[%d][%d] mismatch", label, tr, v)
			}
			if a.EarlyArrival[tr][v] != b.EarlyArrival[tr][v] {
				t.Fatalf("%s: early arrival[%d][%d] mismatch", label, tr, v)
			}
			if a.EarlySlack[tr][v] != b.EarlySlack[tr][v] {
				t.Fatalf("%s: early slack[%d][%d] mismatch", label, tr, v)
			}
		}
	}
}

func TestEarlyLateOrdering(t *testing.T) {
	// Early (best-case) arrivals can never exceed late (worst-case)
	// arrivals, and early slews can never exceed late slews.
	ckt := circuit.Generate("t", circuit.Config{Gates: 1500, Seed: 14})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	for v := range ckt.Gates {
		for tr := 0; tr < ntr; tr++ {
			if tm.EarlyArrival[tr][v] > tm.Arrival[tr][v]+1e-9 {
				t.Fatalf("early arrival exceeds late at [%d][%d]: %v > %v",
					tr, v, tm.EarlyArrival[tr][v], tm.Arrival[tr][v])
			}
			if tm.EarlySlew[tr][v] > tm.Slew[tr][v]+1e-9 {
				t.Fatalf("early slew exceeds late at [%d][%d]", tr, v)
			}
		}
	}
}

func TestHoldAnalysis(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 31})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	hs, at := tm.WorstHoldSlack()
	if at < 0 || !ckt.Gates[at].IsEnd() {
		t.Fatalf("worst hold slack at %d", at)
	}
	if math.IsInf(hs, 0) || math.IsNaN(hs) {
		t.Fatalf("hold slack = %v", hs)
	}
	// Every path goes through at least one gate (>= a few ps), so with a
	// small hold constraint the circuit should be hold-clean.
	if hs < 0 {
		t.Logf("note: hold violation of %v ps in synthetic circuit", hs)
	}
}

func TestIncrementalMatchesFullAfterResize(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 12})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()

	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		seeds := tm.RandomModifier(rng)
		if len(seeds) == 0 {
			continue
		}
		u := tm.PrepareUpdate(seeds)
		tm.RunSequential(u)

		ref := New(ckt, clock)
		ref.FullUpdateSequential()
		equalState(t, "incremental", tm, ref)
	}
}

func TestPrepareUpdateCones(t *testing.T) {
	ckt := circuit.Figure8()
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	var u2 int
	for v, g := range ckt.Gates {
		if g.Name == "u2" {
			u2 = v
		}
	}
	upd := tm.PrepareUpdate([]int{u2})
	// Forward cone of u2: u2, u3, u4, f1:D, out.
	if len(upd.Fwd) != 5 {
		t.Fatalf("fwd cone size %d, want 5 (%v)", len(upd.Fwd), upd.Fwd)
	}
	for i := 1; i < len(upd.Fwd); i++ {
		if upd.Fwd[i] <= upd.Fwd[i-1] {
			t.Fatal("Fwd not ascending")
		}
	}
	for i := 1; i < len(upd.Bwd); i++ {
		if upd.Bwd[i] >= upd.Bwd[i-1] {
			t.Fatal("Bwd not descending")
		}
	}
	if len(upd.Bwd) != 9 {
		t.Fatalf("bwd cone size %d, want 9", len(upd.Bwd))
	}
	if upd.NumTasks() != 14 {
		t.Fatalf("NumTasks = %d", upd.NumTasks())
	}
}

// conesByDefinition extracts the cones of seeds from the gates' own lists,
// one sweep per cone in index (topological) order: a gate is in the forward
// cone if it is a seed or a fan-in is, in the backward cone if it is in the
// forward one or a fan-out is.
func conesByDefinition(ckt *circuit.Circuit, seeds []int) Update {
	n := ckt.NumGates()
	inFwd, inBwd := make([]bool, n), make([]bool, n)
	for _, s := range seeds {
		inFwd[s] = true
	}
	var u Update
	for v, g := range ckt.Gates {
		for _, f := range g.Fanin {
			inFwd[v] = inFwd[v] || inFwd[f]
		}
		if inFwd[v] {
			u.Fwd = append(u.Fwd, v)
		}
	}
	for v := n - 1; v >= 0; v-- {
		inBwd[v] = inFwd[v]
		for _, w := range ckt.Gates[v].Fanout {
			inBwd[v] = inBwd[v] || inBwd[w]
		}
		if inBwd[v] {
			u.Bwd = append(u.Bwd, v)
		}
	}
	return u
}

// PrepareUpdate keeps its traversal scratch on the Timing and hands out
// lists of the caller's own: an Update stays intact while the next one is
// extracted, and the membership stamps survive their epoch wrapping, when
// the stamps of the first calls here would otherwise read as current.
func TestPrepareUpdateReusesScratchOnly(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1500, Seed: 21})
	tm := New(ckt, clock)
	rng := rand.New(rand.NewSource(4))
	var held, heldWant Update
	for i := 0; i < 90; i++ {
		if i == 30 {
			tm.epoch = math.MaxUint32 - 30 // call 60 wraps it
		}
		seeds := tm.RandomModifier(rng)
		u, want := tm.PrepareUpdate(seeds), conesByDefinition(ckt, seeds)
		if !slices.Equal(u.Fwd, want.Fwd) || !slices.Equal(u.Bwd, want.Bwd) {
			t.Fatalf("call %d (epoch %d): cones of %v are %d forward and %d backward gates, by definition %d and %d",
				i, tm.epoch, seeds, len(u.Fwd), len(u.Bwd), len(want.Fwd), len(want.Bwd))
		}
		if !slices.Equal(held.Fwd, heldWant.Fwd) || !slices.Equal(held.Bwd, heldWant.Bwd) {
			t.Fatalf("call %d rewrote the Update of call %d", i, i-1)
		}
		held, heldWant = u, want
	}
	if tm.epoch != 30 {
		t.Fatalf("epoch %d after 30 calls past the wrap, want 30", tm.epoch)
	}
}

// Once the worklist has grown to the largest cone, PrepareUpdate allocates
// its two result lists and nothing else.
func TestPrepareUpdateAllocBound(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 3000, Seed: 5})
	tm := New(ckt, clock)
	var seeds [][]int
	for v := 0; v < ckt.NumGates(); v += 97 {
		seeds = append(seeds, []int{v})
		tm.PrepareUpdate(seeds[len(seeds)-1])
	}
	i, gates := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		gates += tm.PrepareUpdate(seeds[i%len(seeds)]).NumTasks()
		i++
	})
	if allocs > 3 || gates == 0 {
		t.Fatalf("PrepareUpdate allocates %v objects per call, want <= 3 (%d gates extracted)", allocs, gates)
	}
}

func TestFullUpdateCoversAll(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 100, Seed: 2})
	tm := New(ckt, clock)
	u := tm.FullUpdate()
	if len(u.Fwd) != ckt.NumGates() || len(u.Bwd) != ckt.NumGates() {
		t.Fatal("FullUpdate does not cover the circuit")
	}
	tm.RunSequential(u)
	ref := New(ckt, clock)
	ref.FullUpdateSequential()
	equalState(t, "full", tm, ref)
}

// Property: incremental updates after a random wire-cap change always
// reproduce the from-scratch result exactly.
func TestQuickIncrementalWireCap(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 300, Seed: 21})
	tm := New(ckt, clock)
	tm.FullUpdateSequential()
	f := func(gateSel uint16, capSel uint8) bool {
		v := int(gateSel) % ckt.NumGates()
		seeds := tm.SetWireCap(v, 0.5+float64(capSel)/16)
		tm.RunSequential(tm.PrepareUpdate(seeds))
		ref := New(ckt, clock)
		ref.FullUpdateSequential()
		for i := range ckt.Gates {
			for tr := 0; tr < ntr; tr++ {
				if tm.Slack[tr][i] != ref.Slack[tr][i] || tm.Arrival[tr][i] != ref.Arrival[tr][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWorstSlackNoEndpoints(t *testing.T) {
	ckt := &circuit.Circuit{Name: "empty"}
	tm := New(ckt, clock)
	if _, at := tm.WorstSlack(); at != -1 {
		t.Fatal("WorstSlack on empty circuit")
	}
	if tm.CriticalPath() != nil {
		t.Fatal("CriticalPath on empty circuit")
	}
}
