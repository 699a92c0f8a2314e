package core

import (
	"fmt"
	"strings"
)

// findCycleError checks g for strong dependency cycles (weak edges leaving
// condition tasks are legal cycles — that is how task-graph loops are
// expressed — so they are ignored). It returns nil for an acyclic graph, or
// a descriptive error naming the tasks on one cycle, wrapping ErrCyclic.
//
// The usual graph needs no search: when every strong edge leads from an
// earlier-emplaced node to a later one (node.forward), emplace order is a
// topological order. Builders that wire tasks as they create them — timing
// cones, wavefronts, the traversal DAG — produce exactly that.
// graph.compile makes the same test inside the pass it already runs over
// the nodes and comes to kahn only when it fails.
func findCycleError(g *graph) error {
	for _, nd := range g.nodes {
		if !nd.forward() {
			_, err := kahn(g)
			return err
		}
	}
	return nil
}

// kahn is the one walk of the strong edges in dependency order: Kahn's
// algorithm, carrying each node's depth — the longest strong chain ending
// at it, in tasks. It returns the deepest (the unit-cost span RunStats
// reports) and, when some node is never reached, the cycle error; it is the
// cycle detector for graphs with an edge against emplace order or a
// self-loop. The happy path costs two O(V) pointer-free scratch slices and
// one O(V+E) sweep; the error path allocates freely.
func kahn(g *graph) (span int, err error) {
	n := g.len()
	scratch := make([]int32, 2*n)
	indeg, depth := scratch[:n], scratch[n:]
	stack := make([]int32, 0, n)
	for _, nd := range g.nodes {
		depth[nd.idx] = 1
		if indeg[nd.idx] = nd.numDependents; nd.numDependents == 0 {
			stack = append(stack, nd.idx)
		}
	}
	visited := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		span = max(span, int(depth[u]))
		nd := g.nodes[u]
		if nd.isCondition() {
			continue // out-edges of condition tasks are weak
		}
		for _, succs := range [2][]*node{nd.inlineSuccs(), nd.succSpill} {
			for _, s := range succs {
				depth[s.idx] = max(depth[s.idx], depth[u]+1)
				if indeg[s.idx]--; indeg[s.idx] == 0 {
					stack = append(stack, s.idx)
				}
			}
		}
	}
	if visited == n {
		return span, nil
	}
	return span, cycleError(g, indeg)
}

// cycleError names the tasks on one strong cycle of the residual graph
// left by Kahn's algorithm (every node with a positive residual in-degree
// has at least one residual strong predecessor, so walking predecessors
// inside the residual set must revisit a node — that revisit closes a
// cycle).
func cycleError(g *graph, indeg []int32) error {
	residual := func(nd *node) bool { return indeg[nd.idx] > 0 }
	// Invert the strong edges of the residual subgraph.
	pred := make(map[*node]*node, len(g.nodes))
	var start *node
	for _, nd := range g.nodes {
		if !residual(nd) {
			continue
		}
		if start == nil {
			start = nd
		}
		if nd.isCondition() {
			continue
		}
		nd.eachSuccessor(func(s *node) {
			if residual(s) && pred[s] == nil {
				pred[s] = nd
			}
		})
	}
	// Walk predecessors until a node repeats; the repeated node anchors
	// the cycle.
	seen := make(map[*node]int, len(pred))
	walk := []*node{}
	cur := start
	for cur != nil {
		if at, ok := seen[cur]; ok {
			walk = walk[at:] // drop the tail leading into the cycle
			break
		}
		seen[cur] = len(walk)
		walk = append(walk, cur)
		cur = pred[cur]
	}
	// The walk followed predecessors, so reverse it into execution order.
	for i, j := 0, len(walk)-1; i < j; i, j = i+1, j-1 {
		walk[i], walk[j] = walk[j], walk[i]
	}
	const maxNamed = 8
	names := make([]string, 0, maxNamed+1)
	for i, nd := range walk {
		if i == maxNamed {
			names = append(names, fmt.Sprintf("… %d more", len(walk)-maxNamed))
			break
		}
		names = append(names, nd.label(int(nd.idx)))
	}
	return fmt.Errorf("core: cycle through tasks %s: %w",
		strings.Join(names, " -> "), ErrCyclic)
}
