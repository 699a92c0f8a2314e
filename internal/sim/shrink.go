package sim

// Sim-backed failure shrinking. A failing seed from the sweep or fuzzer
// names a whole random graph — often dozens of nodes, most irrelevant to
// the failure. The shrinker greedily deletes nodes and edges while a
// caller-supplied predicate confirms the failure still reproduces under
// the same seed, and the minimized GraphSpec plus its one-line SIM_REPLAY
// recipe is what goes into the bug report. Determinism makes this sound:
// the predicate re-runs the whole simulation per candidate, so "still
// fails" is an exact replay question, not a probabilistic one.

import (
	"fmt"
	"strconv"
	"strings"
)

// GraphSpec is a minimal DAG description for shrinking: N nodes
// (identified 0..N-1) and directed edges. It deliberately carries no
// task bodies — the harness owning the failing property binds specs to
// bodies and runs them under the sim.
type GraphSpec struct {
	N     int
	Edges [][2]int
}

// String renders the spec in the compact "N:u>v,u>v" form parseSpec
// reads — the payload of a SIM_REPLAY recipe.
func (g GraphSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", g.N)
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d>%d", e[0], e[1])
	}
	return b.String()
}

// parseSpec parses the String form back into a spec ("12:0>3,1>4"; edges
// may be empty: "5:").
func parseSpec(s string) (GraphSpec, error) {
	head, tail, ok := strings.Cut(s, ":")
	if !ok {
		return GraphSpec{}, fmt.Errorf("sim: spec %q: missing ':'", s)
	}
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return GraphSpec{}, fmt.Errorf("sim: spec %q: bad node count", s)
	}
	g := GraphSpec{N: n}
	if tail == "" {
		return g, nil
	}
	for _, part := range strings.Split(tail, ",") {
		us, vs, ok := strings.Cut(part, ">")
		if !ok {
			return GraphSpec{}, fmt.Errorf("sim: spec %q: bad edge %q", s, part)
		}
		u, err1 := strconv.Atoi(us)
		v, err2 := strconv.Atoi(vs)
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
			return GraphSpec{}, fmt.Errorf("sim: spec %q: bad edge %q", s, part)
		}
		g.Edges = append(g.Edges, [2]int{u, v})
	}
	return g, nil
}

// dropNode returns the spec with node i removed: its edges deleted and
// every node index above i renumbered down, preserving the relative
// order (and thus the emplacement order) of the survivors.
func (g GraphSpec) dropNode(i int) GraphSpec {
	out := GraphSpec{N: g.N - 1}
	for _, e := range g.Edges {
		if e[0] == i || e[1] == i {
			continue
		}
		u, v := e[0], e[1]
		if u > i {
			u--
		}
		if v > i {
			v--
		}
		out.Edges = append(out.Edges, [2]int{u, v})
	}
	return out
}

// dropEdge returns the spec with edge j removed.
func (g GraphSpec) dropEdge(j int) GraphSpec {
	out := GraphSpec{N: g.N}
	out.Edges = append(out.Edges, g.Edges[:j]...)
	out.Edges = append(out.Edges, g.Edges[j+1:]...)
	return out
}

// shrink greedily minimizes a failing graph spec: repeatedly try to drop
// one node (highest index first, so survivor renumbering is cheap) or
// one edge, keep any candidate for which fails still returns true, and
// stop at a fixpoint where no single deletion reproduces the failure.
// fails must be deterministic — under the sim it re-runs the schedule
// from the seed, so the same spec always answers the same way. The
// result is 1-minimal: removing any single node or edge loses the
// failure.
func shrink(spec GraphSpec, fails func(GraphSpec) bool) GraphSpec {
	for {
		shrunk := false
		// Node pass, highest index first: dropping late nodes does not
		// disturb the indices an earlier candidate drop would use.
		for i := spec.N - 1; i >= 0; i-- {
			cand := spec.dropNode(i)
			if fails(cand) {
				spec = cand
				shrunk = true
			}
		}
		// Edge pass.
		for j := len(spec.Edges) - 1; j >= 0; j-- {
			cand := spec.dropEdge(j)
			if fails(cand) {
				spec = cand
				shrunk = true
			}
		}
		if !shrunk {
			return spec
		}
	}
}
