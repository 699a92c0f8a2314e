package sta

import (
	"math/rand"

	"gotaskflow/internal/circuit"
)

// This file implements the incremental-timing machinery (paper Section
// IV-B, Figure 9): design modifiers dirty a set of seed gates, the engine
// extracts the affected forward and backward cones, and a driver (stav1 or
// stav2) re-propagates exactly those cones.

// Update describes one incremental timing update: Fwd lists the nodes
// whose forward state must be recomputed, in ascending (topological)
// order; Bwd lists the nodes whose required/slack must be recomputed, in
// descending (reverse topological) order.
type Update struct {
	Fwd []int
	Bwd []int
}

// NumTasks returns the total number of propagation tasks in the update.
func (u Update) NumTasks() int { return len(u.Fwd) + len(u.Bwd) }

// ResizeGate swaps gate v's cell for the next drive variant in the given
// direction (+1 up, -1 down) and returns the dirty seeds: v itself plus
// its fanins, whose output loads change with v's input capacitance.
func (t *Timing) ResizeGate(v int, dir int) []int {
	g := t.Ckt.Gates[v]
	if g.Cell == nil {
		return nil
	}
	g.Cell = t.Ckt.Lib.Resize(g.Cell, dir)
	seeds := []int{v}
	for _, u := range g.Fanin {
		seeds = append(seeds, int(u))
	}
	return seeds
}

// SetWireCap changes the wire capacitance of the net driven by v and
// returns the dirty seed.
func (t *Timing) SetWireCap(v int, cap float64) []int {
	t.Ckt.Gates[v].WireCap = cap
	return []int{v}
}

// RandomModifier applies one random design transform — a gate resize or a
// wire-capacitance change, the local edits an optimization engine makes —
// and returns the dirty seeds. Deterministic under a seeded rng.
func (t *Timing) RandomModifier(rng *rand.Rand) []int {
	// Pick a combinational gate.
	for tries := 0; tries < 64; tries++ {
		v := rng.Intn(t.Ckt.NumGates())
		g := t.Ckt.Gates[v]
		if g.Kind != circuit.Comb {
			continue
		}
		if rng.Intn(3) == 0 {
			return t.SetWireCap(v, 0.5+4*rng.Float64())
		}
		dir := 1
		if rng.Intn(2) == 0 {
			dir = -1
		}
		return t.ResizeGate(v, dir)
	}
	return nil
}

// PrepareUpdate extracts the affected cones of the dirty seeds: the
// forward cone is everything reachable through fanouts (arrival, slew and
// load may change there); the backward cone is everything that reaches the
// forward cone through fanins (required time may change there).
//
// The returned lists are freshly allocated and stay valid across later
// calls; everything else is scratch kept on the Timing, so calls on one
// Timing must not overlap.
func (t *Timing) PrepareUpdate(seeds []int) Update {
	if t.epoch++; t.epoch == 0 {
		// The epoch wrapped: a stamp left 2^32 calls ago would read as
		// current.
		clear(t.inFwd)
		clear(t.inBwd)
		t.epoch = 1
	}
	e, inFwd, inBwd := t.epoch, t.inFwd, t.inBwd
	// work[:next] has been expanded, work[next:] is waiting. Nothing is
	// taken off, so after the forward traversal it lists the forward cone
	// and seeds the backward one.
	work := t.work[:0]
	for _, s := range seeds {
		if inFwd[s] != e {
			inFwd[s] = e
			work = append(work, int32(s))
		}
	}
	next := 0
	for ; next < len(work); next++ {
		v := work[next]
		for _, w := range t.fanout[t.fanoutOff[v]:t.fanoutOff[v+1]] {
			if inFwd[w] != e {
				inFwd[w] = e
				work = append(work, w)
			}
		}
	}
	nFwd := len(work)
	for _, v := range work {
		inBwd[v] = e
	}
	for next = 0; next < len(work); next++ {
		v := work[next]
		for _, u := range t.fanin[t.faninOff[v]:t.faninOff[v+1]] {
			if inBwd[u] != e {
				inBwd[u] = e
				work = append(work, u)
			}
		}
	}
	t.work = work

	u := Update{Fwd: make([]int, 0, nFwd), Bwd: make([]int, 0, len(work))}
	for v, stamp := range inFwd {
		if stamp == e {
			u.Fwd = append(u.Fwd, v)
		}
	}
	for v := len(inBwd) - 1; v >= 0; v-- {
		if inBwd[v] == e {
			u.Bwd = append(u.Bwd, v)
		}
	}
	return u
}

// FullUpdate returns the Update covering the entire circuit — what a
// from-scratch timing run propagates.
func (t *Timing) FullUpdate() Update {
	n := t.Ckt.NumGates()
	u := Update{Fwd: make([]int, n), Bwd: make([]int, n)}
	for v := 0; v < n; v++ {
		u.Fwd[v] = v
		u.Bwd[v] = n - 1 - v
	}
	return u
}

// RunSequential applies an update on the calling goroutine in dependency
// order — the reference result for the parallel drivers.
func (t *Timing) RunSequential(u Update) {
	for _, v := range u.Fwd {
		t.RelaxForward(v)
	}
	for _, v := range u.Bwd {
		t.RelaxBackward(v)
	}
}
