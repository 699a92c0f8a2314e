// Package levelize computes topological levels of directed acyclic graphs.
//
// Levelization is the classic parallelization idiom of OpenMP-based VLSI
// timing analyzers (paper Section II-D): partition the DAG into levels such
// that every edge goes from a lower to a strictly higher level, then apply
// a parallel-for with a barrier level by level. circuit.ParseVerilog uses
// it to put a parsed netlist in topological order (stav1 buckets its own
// cone levels per update), and Levels is the reference the tests of four
// packages check level partitions against.
package levelize

import "fmt"

// Graph is the minimal read-only DAG view required for levelization: the
// number of nodes and an iterator over each node's successors.
type Graph interface {
	NumNodes() int
	Successors(i int, visit func(j int))
}

// Levels partitions the nodes of g into topological levels. level[k]
// contains the node indices whose longest incoming path has length k.
// Returns an error if g contains a cycle.
func Levels(g Graph) ([][]int, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		g.Successors(i, func(j int) { indeg[j]++ })
	}
	frontier := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	var levels [][]int
	visited := 0
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		visited += len(frontier)
		var next []int
		for _, u := range frontier {
			g.Successors(u, func(v int) {
				indeg[v]--
				if indeg[v] == 0 {
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	if visited != n {
		return nil, fmt.Errorf("levelize: graph has a cycle (%d of %d nodes reachable)", visited, n)
	}
	return levels, nil
}

// LevelOf returns per-node level numbers instead of level buckets.
func LevelOf(g Graph) ([]int, error) {
	levels, err := Levels(g)
	if err != nil {
		return nil, err
	}
	out := make([]int, g.NumNodes())
	for k, lv := range levels {
		for _, i := range lv {
			out[i] = k
		}
	}
	return out, nil
}

// Adjacency is a Graph backed by a successor adjacency list.
type Adjacency [][]int

// NumNodes implements Graph.
func (a Adjacency) NumNodes() int { return len(a) }

// Successors implements Graph.
func (a Adjacency) Successors(i int, visit func(int)) {
	for _, j := range a[i] {
		visit(j)
	}
}
