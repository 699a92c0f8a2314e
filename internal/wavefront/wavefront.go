// Package wavefront implements the wavefront-computing micro-benchmark of
// the Cpp-Taskflow paper (Section IV-A, Figure 6), modified from the
// official TBB blog example: a 2D matrix is partitioned into identical
// square blocks, each block is a task performing a nominal constant-time
// operation, and dependencies propagate monotonically from the top-left
// block to the bottom-right block — each task precedes one task to the
// right and another below. The resulting task dependency graph is regular.
//
// Four backends build and execute the same computation: Taskflow (this
// repository's core library), FlowGraph (the TBB model), OMP (the OpenMP
// task-depend model), and Sequential. All return the same checksum, which
// tests verify; benchmarks time the whole call, matching the paper's
// measurement of ramp-up + construction + execution + clean-up.
package wavefront

import (
	"fmt"

	"gotaskflow/internal/core"
	"gotaskflow/internal/flowgraph"
	"gotaskflow/internal/omp"
)

// Spin is the default nominal per-task operation cost (iterations of an
// integer LCG), calibrated to be small but not optimizable away.
const Spin = 64

// kernel is the nominal block operation: fold the two upstream values and
// spin a deterministic LCG for the given number of rounds.
func kernel(left, up uint64, spin int) uint64 {
	x := left*31 + up*17 + 1
	for i := 0; i < spin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// grid allocates the (m+1)×(m+1) value grid with unit borders so block
// (0,0) has well-defined inputs. Rows are windows of one flat backing
// array: two allocations regardless of m.
func grid(m int) [][]uint64 {
	g := make([][]uint64, m+1)
	flat := make([]uint64, (m+1)*(m+1))
	for i := range g {
		g[i], flat = flat[:m+1:m+1], flat[m+1:]
	}
	for i := 0; i <= m; i++ {
		g[i][0] = 1
		g[0][i] = 1
	}
	return g
}

// NumTasks returns the task count of an m×m wavefront.
func NumTasks(m int) int { return m * m }

// Sequential computes the wavefront serially and returns the checksum —
// the reference result for all parallel backends.
func Sequential(m, spin int) uint64 {
	g := grid(m)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			g[i][j] = kernel(g[i][j-1], g[i-1][j], spin)
		}
	}
	return g[m][m]
}

// Taskflow runs the m×m wavefront on the core taskflow library with the
// given worker count, including graph construction and executor teardown.
// Task failures (panics converted by the runtime) are returned, not
// re-panicked.
func Taskflow(m, spin, workers int) (uint64, error) {
	tf := core.New(workers)
	defer tf.Close()
	g := Build(tf, m, spin)
	if err := tf.WaitForAll(); err != nil {
		return 0, err
	}
	return g[m][m], nil
}

// Build emplaces the m×m wavefront task graph on tf and returns
// the value grid the tasks write into.
func Build(tf *core.Taskflow, m, spin int) [][]uint64 {
	g := grid(m)
	tasks := make([][]core.Task, m)
	for i := 0; i < m; i++ {
		tasks[i] = make([]core.Task, m)
		for j := 0; j < m; j++ {
			i, j := i+1, j+1
			tasks[i-1][j-1] = tf.Emplace1(func() {
				g[i][j] = kernel(g[i][j-1], g[i-1][j], spin)
			})
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i+1 < m {
				tasks[i][j].Precede(tasks[i+1][j])
			}
			if j+1 < m {
				tasks[i][j].Precede(tasks[i][j+1])
			}
		}
	}
	return g
}

// TaskflowLevelized runs the m×m wavefront as a levelized chain of
// partitioned parallel loops — one ParallelForIndex per anti-diagonal,
// every block of a diagonal being independent — instead of one task per
// block. With a Dynamic or Guided partitioner the whole wavefront costs
// O(m·workers) graph nodes instead of m², trading the fine-grained
// dependency structure for run-time range claiming; the checksum is
// identical.
func TaskflowLevelized(m, spin, workers int, p core.Partitioner) (uint64, error) {
	tf := core.New(workers)
	defer tf.Close()
	g := buildLevelized(tf, m, spin, p)
	if err := tf.WaitForAll(); err != nil {
		return 0, err
	}
	return g[m][m], nil
}

// buildLevelized emplaces the levelized wavefront — a chain of partitioned
// anti-diagonal loops — on tf and returns the value grid.
func buildLevelized(tf *core.Taskflow, m, spin int, p core.Partitioner) [][]uint64 {
	g := grid(m)
	first := true
	var prevT core.Task
	for d := 2; d <= 2*m; d++ {
		lo, hi := 1, m
		if d-m > lo {
			lo = d - m
		}
		if d-1 < hi {
			hi = d - 1
		}
		d := d
		S, T := core.ParallelForIndex(tf, lo, hi+1, 1, func(i int) {
			j := d - i
			g[i][j] = kernel(g[i][j-1], g[i-1][j], spin)
		}, 0, core.WithPartitioner(p))
		if !first {
			prevT.Precede(S)
		}
		prevT = T
		first = false
	}
	return g
}

// FlowGraph runs the wavefront on the TBB FlowGraph model.
func FlowGraph(m, spin, workers int) uint64 {
	fg := flowgraph.NewGraph(workers)
	defer fg.Close()
	g := grid(m)
	nodes := make([][]*flowgraph.ContinueNode, m)
	for i := 0; i < m; i++ {
		nodes[i] = make([]*flowgraph.ContinueNode, m)
		for j := 0; j < m; j++ {
			i, j := i+1, j+1
			nodes[i-1][j-1] = flowgraph.NewContinueNode(fg, func(flowgraph.ContinueMsg) {
				g[i][j] = kernel(g[i][j-1], g[i-1][j], spin)
			})
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i+1 < m {
				flowgraph.MakeEdge(nodes[i][j], nodes[i+1][j])
			}
			if j+1 < m {
				flowgraph.MakeEdge(nodes[i][j], nodes[i][j+1])
			}
		}
	}
	nodes[0][0].TryPut(flowgraph.ContinueMsg{}) // explicit source, like TBB
	fg.WaitForAll()
	return g[m][m]
}

// OMP runs the wavefront on the OpenMP task-depend model: tasks are
// declared in row-major (topological) order with one token per dependency
// edge, as in the paper's static annotation style.
func OMP(m, spin, workers int) uint64 {
	p := omp.NewParallel(workers)
	defer p.Close()
	g := grid(m)
	p.Single(func(s *omp.Scope) {
		for i := 1; i <= m; i++ {
			for j := 1; j <= m; j++ {
				i, j := i, j
				var deps []omp.Dep
				if i > 1 {
					deps = append(deps, omp.In(edgeToken(i-1, j, i, j)))
				}
				if j > 1 {
					deps = append(deps, omp.In(edgeToken(i, j-1, i, j)))
				}
				var outs []string
				if i < m {
					outs = append(outs, edgeToken(i, j, i+1, j))
				}
				if j < m {
					outs = append(outs, edgeToken(i, j, i, j+1))
				}
				if len(outs) > 0 {
					deps = append(deps, omp.Out(outs...))
				}
				s.Task(func() {
					g[i][j] = kernel(g[i][j-1], g[i-1][j], spin)
				}, deps...)
			}
		}
	})
	return g[m][m]
}

func edgeToken(i0, j0, i1, j1 int) string {
	return fmt.Sprintf("e%d_%d__%d_%d", i0, j0, i1, j1)
}
