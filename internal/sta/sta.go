// Package sta is the static timing analysis engine behind the OpenTimer
// experiments of the Cpp-Taskflow paper (Section IV-B). It implements the
// standard gate-level STA pipeline with rise/fall transition analysis:
// forward propagation of output load, per-arc per-transition delay (NLDM
// table lookups under the cell's unateness), arrival time and slew from
// the startpoints, then backward propagation of required time and slack
// from the endpoints, plus the incremental machinery — design modifiers,
// dirty seeds and affected-cone extraction — that optimization loops
// hammer with millions of small timing queries.
//
// The engine deliberately separates the *numerics* (RelaxForward /
// RelaxBackward, pure functions of neighbor state) from the *parallel
// decomposition*, which is supplied by the two drivers: stav1 parallelizes
// with the levelize-and-barrier idiom of OpenTimer v1 (OpenMP), stav2 with
// a per-update task dependency graph as in OpenTimer v2 (Cpp-Taskflow).
// Both produce bit-identical results, which the tests verify.
package sta

import (
	"math"

	"gotaskflow/internal/celllib"
	"gotaskflow/internal/circuit"
)

// poCap is the fixed capacitive load a primary output presents, fF.
const poCap = 2.0

// ntr is shorthand for the number of transitions analyzed (rise, fall).
const ntr = celllib.NumTransitions

// Timing holds the analysis state for one circuit. Per-node quantities
// are indexed [transition][node].
type Timing struct {
	Ckt *circuit.Circuit

	// ClockPeriod, Setup and Hold define the endpoint constraints, ps.
	// Late (setup) analysis checks the latest arrival against
	// ClockPeriod-Setup; early (hold) analysis checks the earliest arrival
	// against Hold.
	ClockPeriod float64
	Setup       float64
	Hold        float64
	// InputSlew is the slew at startpoints, ps.
	InputSlew float64

	// Late-mode (setup) quantities: worst-case arrivals and slews
	// propagate by max, required times by min.
	Load     []float64
	Arrival  [ntr][]float64
	Slew     [ntr][]float64
	Required [ntr][]float64
	Slack    [ntr][]float64
	// Delay[v] stores the per-arc per-transition late propagation delays
	// of v's input arcs, laid out as [k*4 + trIn*2 + trOut]. Combinations
	// forbidden by the cell's unateness hold NaN. Filled by the forward
	// pass, consumed by the backward pass.
	Delay [][]float64

	// Early-mode (hold) quantities: best-case arrivals and slews
	// propagate by min, required times by max, and slack is
	// arrival - required.
	EarlyArrival  [ntr][]float64
	EarlySlew     [ntr][]float64
	EarlyRequired [ntr][]float64
	EarlySlack    [ntr][]float64
	EarlyDelay    [][]float64

	// The netlist's edges as flat adjacency, copied from the gates' lists
	// once in New (design modifiers never change topology): gate v's
	// fan-out is fanout[fanoutOff[v]:fanoutOff[v+1]], its fan-in likewise.
	// Cone extraction and stav2's edge wiring walk these instead of
	// chasing a *Gate per node.
	fanoutOff, fanout []int32
	faninOff, fanin   []int32

	// PrepareUpdate's scratch: a gate is in the cone being extracted when
	// its stamp equals epoch, so no per-call membership array is made or
	// cleared; work is the traversal's worklist, kept for its capacity.
	inFwd, inBwd []uint32
	epoch        uint32
	work         []int32
}

// New creates a Timing for ckt with the given clock period (ps).
func New(ckt *circuit.Circuit, clockPeriod float64) *Timing {
	n := ckt.NumGates()
	t := &Timing{
		Ckt:         ckt,
		ClockPeriod: clockPeriod,
		Setup:       clockPeriod * 0.02,
		Hold:        clockPeriod * 0.008,
		InputSlew:   20,
		Load:        make([]float64, n),
		Delay:       make([][]float64, n),
		EarlyDelay:  make([][]float64, n),
	}
	for tr := 0; tr < ntr; tr++ {
		t.Arrival[tr] = make([]float64, n)
		t.Slew[tr] = make([]float64, n)
		t.Required[tr] = make([]float64, n)
		t.Slack[tr] = make([]float64, n)
		t.EarlyArrival[tr] = make([]float64, n)
		t.EarlySlew[tr] = make([]float64, n)
		t.EarlyRequired[tr] = make([]float64, n)
		t.EarlySlack[tr] = make([]float64, n)
	}
	edges := ckt.NumEdges()
	t.fanoutOff, t.fanout = make([]int32, n+1), make([]int32, 0, edges)
	t.faninOff, t.fanin = make([]int32, n+1), make([]int32, 0, edges)
	for v, g := range ckt.Gates {
		t.Delay[v] = make([]float64, 4*len(g.Fanin))
		t.EarlyDelay[v] = make([]float64, 4*len(g.Fanin))
		t.fanout = append(t.fanout, g.Fanout...)
		t.fanin = append(t.fanin, g.Fanin...)
		t.fanoutOff[v+1], t.faninOff[v+1] = int32(len(t.fanout)), int32(len(t.fanin))
	}
	t.inFwd, t.inBwd = make([]uint32, n), make([]uint32, n)
	return t
}

// Fanouts returns the netlist's fan-out edges as flat adjacency: gate v
// drives adj[off[v]:off[v+1]], in Gate.Fanout order. The arrays are the
// timer's own; callers must not write to them.
func (t *Timing) Fanouts() (off, adj []int32) { return t.fanoutOff, t.fanout }

// delayIndex computes the layout offset of (arc k, input transition,
// output transition) in Delay[v].
func delayIndex(k int, trIn, trOut celllib.Transition) int {
	return k*4 + int(trIn)*2 + int(trOut)
}

// inputTransitions returns the input transitions that can cause the given
// output transition under the cell's unateness.
func inputTransitions(u celllib.Unateness, trOut celllib.Transition) [2]int {
	// The second slot is -1 when only one input transition applies.
	switch u {
	case celllib.PositiveUnate:
		return [2]int{int(trOut), -1}
	case celllib.NegativeUnate:
		return [2]int{1 - int(trOut), -1}
	default:
		return [2]int{0, 1}
	}
}

// RelaxForward recomputes node v's output load, input-arc delays, arrival
// times and slews (both transitions) from its fanins' state. It is a pure
// function of the fanins' Arrival/Slew and the fanouts' input capacitance,
// so independent nodes may be relaxed concurrently as long as dependency
// order holds.
func (t *Timing) RelaxForward(v int) {
	g := t.Ckt.Gates[v]
	t.Load[v] = t.computeLoad(v)
	switch g.Kind {
	case circuit.PI:
		for tr := 0; tr < ntr; tr++ {
			t.Arrival[tr][v] = 0
			t.Slew[tr][v] = t.InputSlew
			t.EarlyArrival[tr][v] = 0
			t.EarlySlew[tr][v] = t.InputSlew
		}
	case circuit.FFQ:
		// Clock-to-Q: the rising clock edge launches both output
		// transitions through the flip-flop's arc at the node's load.
		arc := &g.Cell.Arcs[0]
		for tr := celllib.Rise; tr <= celllib.Fall; tr++ {
			d := arc.Delay(tr).Lookup(t.InputSlew, t.Load[v])
			s := arc.OutSlew(tr).Lookup(t.InputSlew, t.Load[v])
			t.Arrival[tr][v] = d
			t.Slew[tr][v] = s
			t.EarlyArrival[tr][v] = d
			t.EarlySlew[tr][v] = s
		}
	case circuit.Comb:
		for trOut := celllib.Rise; trOut <= celllib.Fall; trOut++ {
			arr, slew := math.Inf(-1), math.Inf(-1)
			eArr, eSlew := math.Inf(1), math.Inf(1)
			ins := inputTransitions(g.Cell.Unate, trOut)
			for k, ui := range g.Fanin {
				u := int(ui)
				arc := &g.Cell.Arcs[k%len(g.Cell.Arcs)]
				dTab := arc.Delay(trOut)
				sTab := arc.OutSlew(trOut)
				for _, trInI := range ins {
					if trInI < 0 {
						continue
					}
					trIn := celllib.Transition(trInI)
					// Late mode: worst-case slews, max reduction.
					d := dTab.Lookup(t.Slew[trIn][u], t.Load[v])
					t.Delay[v][delayIndex(k, trIn, trOut)] = d
					if a := t.Arrival[trIn][u] + d; a > arr {
						arr = a
					}
					if s := sTab.Lookup(t.Slew[trIn][u], t.Load[v]); s > slew {
						slew = s
					}
					// Early mode: best-case slews, min reduction.
					ed := dTab.Lookup(t.EarlySlew[trIn][u], t.Load[v])
					t.EarlyDelay[v][delayIndex(k, trIn, trOut)] = ed
					if a := t.EarlyArrival[trIn][u] + ed; a < eArr {
						eArr = a
					}
					if s := sTab.Lookup(t.EarlySlew[trIn][u], t.Load[v]); s < eSlew {
						eSlew = s
					}
				}
				// Mark the forbidden combination NaN so the backward pass
				// skips it.
				if g.Cell.Unate != celllib.NonUnate {
					var forbidden celllib.Transition
					if ins[0] == int(celllib.Rise) {
						forbidden = celllib.Fall
					} else {
						forbidden = celllib.Rise
					}
					t.Delay[v][delayIndex(k, forbidden, trOut)] = math.NaN()
					t.EarlyDelay[v][delayIndex(k, forbidden, trOut)] = math.NaN()
				}
			}
			t.Arrival[trOut][v], t.Slew[trOut][v] = arr, slew
			t.EarlyArrival[trOut][v], t.EarlySlew[trOut][v] = eArr, eSlew
		}
	case circuit.FFD, circuit.PO:
		// Endpoint pins: the net delivers the driver's signal directly
		// (identity arc, zero delay, transition preserved).
		u := int(g.Fanin[0])
		for tr := celllib.Rise; tr <= celllib.Fall; tr++ {
			t.Delay[v][delayIndex(0, tr, tr)] = 0
			t.Delay[v][delayIndex(0, tr, 1-tr)] = math.NaN()
			t.EarlyDelay[v][delayIndex(0, tr, tr)] = 0
			t.EarlyDelay[v][delayIndex(0, tr, 1-tr)] = math.NaN()
			t.Arrival[tr][v] = t.Arrival[tr][u]
			t.Slew[tr][v] = t.Slew[tr][u]
			t.EarlyArrival[tr][v] = t.EarlyArrival[tr][u]
			t.EarlySlew[tr][v] = t.EarlySlew[tr][u]
		}
	}
}

// RelaxBackward recomputes node v's required times and slacks from its
// fanouts' state (or its endpoint constraint).
func (t *Timing) RelaxBackward(v int) {
	g := t.Ckt.Gates[v]
	switch g.Kind {
	case circuit.FFD:
		for tr := 0; tr < ntr; tr++ {
			t.Required[tr][v] = t.ClockPeriod - t.Setup
			t.EarlyRequired[tr][v] = t.Hold
		}
	case circuit.PO:
		for tr := 0; tr < ntr; tr++ {
			t.Required[tr][v] = t.ClockPeriod
			t.EarlyRequired[tr][v] = 0
		}
	default:
		for trIn := celllib.Rise; trIn <= celllib.Fall; trIn++ {
			req := math.Inf(1)
			eReq := math.Inf(-1)
			for _, wi := range g.Fanout {
				w := int(wi)
				for k, ui := range t.Ckt.Gates[w].Fanin {
					if int(ui) != v {
						continue
					}
					for trOut := celllib.Rise; trOut <= celllib.Fall; trOut++ {
						d := t.Delay[w][delayIndex(k, trIn, trOut)]
						if !math.IsNaN(d) {
							if r := t.Required[trOut][w] - d; r < req {
								req = r
							}
						}
						ed := t.EarlyDelay[w][delayIndex(k, trIn, trOut)]
						if !math.IsNaN(ed) {
							if r := t.EarlyRequired[trOut][w] - ed; r > eReq {
								eReq = r
							}
						}
					}
				}
			}
			t.Required[trIn][v] = req
			t.EarlyRequired[trIn][v] = eReq
		}
	}
	for tr := 0; tr < ntr; tr++ {
		t.Slack[tr][v] = t.Required[tr][v] - t.Arrival[tr][v]
		t.EarlySlack[tr][v] = t.EarlyArrival[tr][v] - t.EarlyRequired[tr][v]
	}
}

// computeLoad sums the input capacitance of every sink on v's net plus the
// net's wire capacitance.
func (t *Timing) computeLoad(v int) float64 {
	g := t.Ckt.Gates[v]
	load := g.WireCap
	for _, wi := range g.Fanout {
		w := t.Ckt.Gates[wi]
		switch {
		case w.Kind == circuit.PO:
			load += poCap
		case w.Cell != nil:
			load += w.Cell.InputCap
		}
	}
	return load
}

// FullUpdateSequential runs a complete forward and backward propagation in
// topological order on the calling goroutine — the reference for every
// parallel driver.
func (t *Timing) FullUpdateSequential() {
	n := t.Ckt.NumGates()
	for v := 0; v < n; v++ {
		t.RelaxForward(v)
	}
	for v := n - 1; v >= 0; v-- {
		t.RelaxBackward(v)
	}
}

// WorstSlack returns the minimum late (setup) slack over all endpoints and
// transitions, and the endpoint realizing it (-1 if the circuit has no
// endpoints).
func (t *Timing) WorstSlack() (float64, int) {
	worst, at := math.Inf(1), -1
	for v, g := range t.Ckt.Gates {
		if !g.IsEnd() {
			continue
		}
		for tr := 0; tr < ntr; tr++ {
			if t.Slack[tr][v] < worst {
				worst, at = t.Slack[tr][v], v
			}
		}
	}
	return worst, at
}

// WorstHoldSlack returns the minimum early (hold) slack over all endpoints
// and transitions, and the endpoint realizing it.
func (t *Timing) WorstHoldSlack() (float64, int) {
	worst, at := math.Inf(1), -1
	for v, g := range t.Ckt.Gates {
		if !g.IsEnd() {
			continue
		}
		for tr := 0; tr < ntr; tr++ {
			if t.EarlySlack[tr][v] < worst {
				worst, at = t.EarlySlack[tr][v], v
			}
		}
	}
	return worst, at
}

// CriticalPath walks from the worst endpoint back through the
// (fanin, transition) pairs that determine each arrival time, returning
// gate IDs from startpoint to endpoint.
func (t *Timing) CriticalPath() []int {
	_, v := t.WorstSlack()
	if v < 0 {
		return nil
	}
	tr := celllib.Rise
	if t.Slack[celllib.Fall][v] < t.Slack[celllib.Rise][v] {
		tr = celllib.Fall
	}
	var rev []int
	for {
		rev = append(rev, v)
		g := t.Ckt.Gates[v]
		if len(g.Fanin) == 0 {
			break
		}
		bestU, bestTr, bestA := -1, celllib.Rise, math.Inf(-1)
		for k, ui := range g.Fanin {
			u := int(ui)
			for trIn := celllib.Rise; trIn <= celllib.Fall; trIn++ {
				d := t.Delay[v][delayIndex(k, trIn, tr)]
				if math.IsNaN(d) {
					continue
				}
				if a := t.Arrival[trIn][u] + d; a > bestA {
					bestA, bestU, bestTr = a, u, trIn
				}
			}
		}
		if bestU < 0 {
			break
		}
		v, tr = bestU, bestTr
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
