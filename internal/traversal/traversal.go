// Package traversal implements the graph-traversal micro-benchmark of the
// Cpp-Taskflow paper (Section IV-A): a randomly generated degree-bounded
// DAG is cast into a task dependency graph that performs a parallel
// traversal; each node's task folds its predecessors' values with a nominal
// constant-time operation. The irregular structure is the counterpart to
// the regular wavefront pattern and mimics OpenMP-based circuit-analysis
// workloads and their limitations.
//
// Four backends execute the same traversal — Taskflow, FlowGraph (TBB
// model), OMP (OpenMP task-depend model, node degree capped at 4 as in the
// paper), and Sequential — and return identical checksums.
package traversal

import (
	"fmt"

	"gotaskflow/internal/core"
	"gotaskflow/internal/flowgraph"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/omp"
)

// Spin is the default nominal per-node operation cost.
const Spin = 64

// kernel folds an accumulated predecessor value with node identity and
// spins a deterministic LCG.
func kernel(acc uint64, node int, spin int) uint64 {
	x := acc ^ (uint64(node)*0x9e3779b97f4a7c15 + 1)
	for i := 0; i < spin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// preds inverts the successor lists of d. The per-node lists are windows
// of one flat backing array sized from the known in-degrees, so the
// inversion costs two allocations instead of one growth chain per node.
func preds(d *graphgen.DAG) [][]int32 {
	p := make([][]int32, d.N)
	total := 0
	for v := 0; v < d.N; v++ {
		total += int(d.InDeg[v])
	}
	flat := make([]int32, total)
	off := 0
	for v := 0; v < d.N; v++ {
		p[v] = flat[off : off : off+int(d.InDeg[v])]
		off += int(d.InDeg[v])
	}
	for u := range d.Succ {
		for _, v := range d.Succ[u] {
			p[v] = append(p[v], int32(u))
		}
	}
	return p
}

// visit computes node v's value from its predecessors' values.
func visit(val []uint64, pred []int32, v, spin int) {
	var acc uint64
	for _, u := range pred {
		acc += val[u]
	}
	val[v] = kernel(acc, v, spin)
}

// Checksum folds all node values.
func Checksum(val []uint64) uint64 {
	var c uint64
	for _, v := range val {
		c = c*31 + v
	}
	return c
}

// Sequential traverses d in topological (index) order — the reference
// result for the parallel backends.
func Sequential(d *graphgen.DAG, spin int) uint64 {
	p := preds(d)
	val := make([]uint64, d.N)
	for v := 0; v < d.N; v++ {
		visit(val, p[v], v, spin)
	}
	return Checksum(val)
}

// Taskflow casts d into a taskflow graph and traverses it in parallel.
// Task failures are returned, not re-panicked.
func Taskflow(d *graphgen.DAG, spin, workers int) (uint64, error) {
	tf := core.New(workers)
	defer tf.Close()
	val := Build(tf, d, spin)
	if err := tf.WaitForAll(); err != nil {
		return 0, err
	}
	return Checksum(val), nil
}

// Build emplaces d's traversal task graph on tf and returns the
// value array the tasks write into.
func Build(tf *core.Taskflow, d *graphgen.DAG, spin int) []uint64 {
	p := preds(d)
	val := make([]uint64, d.N)
	tasks := make([]core.Task, d.N)
	for v := 0; v < d.N; v++ {
		v := v
		tasks[v] = tf.Emplace1(func() { visit(val, p[v], v, spin) })
	}
	for u := 0; u < d.N; u++ {
		for _, v := range d.Succ[u] {
			tasks[u].Precede(tasks[v])
		}
	}
	return val
}

// FlowGraph traverses d on the TBB FlowGraph model. All sources must be
// fired explicitly, as TBB requires.
func FlowGraph(d *graphgen.DAG, spin, workers int) uint64 {
	fg := flowgraph.NewGraph(workers)
	defer fg.Close()
	p := preds(d)
	val := make([]uint64, d.N)
	nodes := make([]*flowgraph.ContinueNode, d.N)
	for v := 0; v < d.N; v++ {
		v := v
		nodes[v] = flowgraph.NewContinueNode(fg, func(flowgraph.ContinueMsg) {
			visit(val, p[v], v, spin)
		})
	}
	for u := 0; u < d.N; u++ {
		for _, v := range d.Succ[u] {
			flowgraph.MakeEdge(nodes[u], nodes[v])
		}
	}
	for _, s := range d.Sources() {
		nodes[s].TryPut(flowgraph.ContinueMsg{})
	}
	fg.WaitForAll()
	return Checksum(val)
}

// OMP traverses d on the OpenMP task-depend model: one task per node,
// declared in topological (index) order, with one dependency token per
// edge. The paper's degree cap of 4 keeps this enumeration tractable.
func OMP(d *graphgen.DAG, spin, workers int) uint64 {
	p := preds(d)
	val := make([]uint64, d.N)
	team := omp.NewParallel(workers)
	defer team.Close()
	team.Single(func(s *omp.Scope) {
		for v := 0; v < d.N; v++ {
			v := v
			var deps []omp.Dep
			if len(p[v]) > 0 {
				in := make([]string, len(p[v]))
				for k, u := range p[v] {
					in[k] = edgeToken(int(u), v)
				}
				deps = append(deps, omp.In(in...))
			}
			if len(d.Succ[v]) > 0 {
				out := make([]string, len(d.Succ[v]))
				for k, w := range d.Succ[v] {
					out[k] = edgeToken(v, int(w))
				}
				deps = append(deps, omp.Out(out...))
			}
			s.Task(func() { visit(val, p[v], v, spin) }, deps...)
		}
	})
	return Checksum(val)
}

func edgeToken(u, v int) string { return fmt.Sprintf("e%d_%d", u, v) }
