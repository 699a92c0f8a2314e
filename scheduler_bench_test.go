// Partitioner comparison: one skewed ParallelForIndex re-run under static,
// guided and dynamic chunking. The per-task scheduling cost of fixed graph
// shapes is the benchmark harness's business (`go run ./benchmark -trace 1`:
// core.run_chain_ns_per_task, core.run_fanout_ns_per_task,
// core.run_tree_ns_per_task, executor.obs_*_ns_per_task).
package gotaskflow_test

import (
	"testing"

	"gotaskflow/internal/core"
)

// skewedCosts builds a deterministic heavy-tailed per-element cost table:
// most elements spin a few LCG rounds, a pseudo-random ~1/16 of them spin
// 64× that. The table depends only on n, so static/guided/dynamic runs see
// the identical workload.
func skewedCosts(n int) []int {
	costs := make([]int, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range costs {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>60 == 0 {
			costs[i] = 1024
		} else {
			costs[i] = 16
		}
	}
	return costs
}

// benchmarkParallelForSkewed re-runs one ParallelForIndex over 8192
// elements with heavy-tailed per-element cost. The chunk/partitioner
// choice decides the graph shape: fine-grained static chunking (the only
// static answer to unknown skew) pays one graph node per chunk, while the
// dynamic partitioners emplace min(workers, n) claimant tasks that pull
// ranges off a shared cursor at run time.
func benchmarkParallelForSkewed(b *testing.B, chunk int, opts ...core.AlgOption) {
	tf := core.New(workers())
	defer tf.Close()
	costs := skewedCosts(8192)
	out := make([]uint64, len(costs))
	core.ParallelForIndex(tf, 0, len(costs), 1, func(i int) {
		x := uint64(i)
		for r := 0; r < costs[i]; r++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		out[i] = x
	}, chunk, opts...)
	if err := tf.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tf.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelForSkewedStatic is the baseline: chunk=1 static
// partitioning, 8192 task nodes per run.
func BenchmarkParallelForSkewedStatic(b *testing.B) {
	benchmarkParallelForSkewed(b, 1)
}

// BenchmarkParallelForSkewedStaticCoarse is the other static corner:
// default (workers×4) chunking, few nodes but no load balance under skew.
func BenchmarkParallelForSkewedStaticCoarse(b *testing.B) {
	benchmarkParallelForSkewed(b, 0)
}

// BenchmarkParallelForSkewedGuided uses the guided partitioner: grants
// start at remaining/(2·workers) and shrink toward the grain.
func BenchmarkParallelForSkewedGuided(b *testing.B) {
	benchmarkParallelForSkewed(b, 0, core.WithPartitioner(core.Guided))
}

// BenchmarkParallelForSkewedDynamic uses the dynamic partitioner with a
// modest grain: fixed 8-element grants off the shared cursor.
func BenchmarkParallelForSkewedDynamic(b *testing.B) {
	benchmarkParallelForSkewed(b, 8, core.WithPartitioner(core.Dynamic))
}
