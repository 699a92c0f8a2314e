// Benchmarks regenerating the data points of every table and figure in
// the Cpp-Taskflow paper's evaluation (Section IV). Each benchmark times
// one backend at one representative configuration; cmd/repro sweeps the
// full axes. Sizes here are laptop-budget; see EXPERIMENTS.md
// for paper-scale runs and shape comparisons.
package gotaskflow_test

import (
	"io"
	"math/rand"
	"runtime"
	"testing"

	"gotaskflow/internal/dnn"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/mnist"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav1"
	"gotaskflow/internal/stav2"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
)

func workers() int { return runtime.GOMAXPROCS(0) }

// ---- Figure 7 top-left: wavefront runtime vs size (fixed size point).

const benchWavefrontSize = 96 // 9216 tasks

func BenchmarkFig7WavefrontSizeTaskflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wavefront.Taskflow(benchWavefrontSize, wavefront.Spin, workers())
	}
}

func BenchmarkFig7WavefrontSizeTBB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wavefront.FlowGraph(benchWavefrontSize, wavefront.Spin, workers())
	}
}

func BenchmarkFig7WavefrontSizeOMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wavefront.OMP(benchWavefrontSize, wavefront.Spin, workers())
	}
}

func BenchmarkFig7WavefrontSizeSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wavefront.Sequential(benchWavefrontSize, wavefront.Spin)
	}
}

// ---- Figure 7 top-right: graph traversal runtime vs size.

func benchDAG() *graphgen.DAG {
	return graphgen.Random(20000, graphgen.Config{MaxIn: 4, MaxOut: 4, Seed: 2019})
}

func BenchmarkFig7TraversalSizeTaskflow(b *testing.B) {
	d := benchDAG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.Taskflow(d, traversal.Spin, workers())
	}
}

func BenchmarkFig7TraversalSizeTBB(b *testing.B) {
	d := benchDAG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.FlowGraph(d, traversal.Spin, workers())
	}
}

func BenchmarkFig7TraversalSizeOMP(b *testing.B) {
	d := benchDAG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.OMP(d, traversal.Spin, workers())
	}
}

func BenchmarkFig7TraversalSizeSequential(b *testing.B) {
	d := benchDAG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.Sequential(d, traversal.Spin)
	}
}

// ---- Figure 7 bottom: runtime vs workers (the 1-worker point, where the
// paper reports Cpp-Taskflow 32-84% faster than TBB).

func BenchmarkFig7CPU1WavefrontTaskflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wavefront.Taskflow(benchWavefrontSize, wavefront.Spin, 1)
	}
}

func BenchmarkFig7CPU1WavefrontTBB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wavefront.FlowGraph(benchWavefrontSize, wavefront.Spin, 1)
	}
}

func BenchmarkFig7CPU1TraversalTaskflow(b *testing.B) {
	d := benchDAG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.Taskflow(d, traversal.Spin, 1)
	}
}

func BenchmarkFig7CPU1TraversalTBB(b *testing.B) {
	d := benchDAG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.FlowGraph(d, traversal.Spin, 1)
	}
}

// ---- Tables I-III: the software-cost analyses (regenerating the metric
// computation itself).

func BenchmarkTable1SoftwareCosts(b *testing.B) {
	root, err := experiments.SrcRoot()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(io.Discard, root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2SoftwareCosts(b *testing.B) {
	root, _ := experiments.SrcRoot()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(io.Discard, root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3SoftwareCosts(b *testing.B) {
	root, _ := experiments.SrcRoot()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(io.Discard, root); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 9: one incremental timing iteration, v1 vs v2, tv80-scale.

func benchTiming(gates int) (*sta.Timing, *rand.Rand) {
	d := experiments.Design{Name: "bench", Gates: gates, Seed: 80}
	ckt := d.Build(1)
	tm := sta.New(ckt, experiments.ClockPeriod)
	return tm, rand.New(rand.NewSource(7))
}

func BenchmarkFig9IncrementalV1OMP(b *testing.B) {
	tm, rng := benchTiming(5300)
	a := stav1.New(tm, workers())
	defer a.Close()
	a.Run(tm.FullUpdate())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seeds := tm.RandomModifier(rng)
		a.Run(tm.PrepareUpdate(seeds))
	}
}

func BenchmarkFig9IncrementalV2Taskflow(b *testing.B) {
	tm, rng := benchTiming(5300)
	a := stav2.New(tm, workers())
	defer a.Close()
	a.Run(tm.FullUpdate())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seeds := tm.RandomModifier(rng)
		a.Run(tm.PrepareUpdate(seeds))
	}
}

// ---- Figure 10: one full timing update on a large design, v1 vs v2.

func BenchmarkFig10FullTimingV1OMP(b *testing.B) {
	tm, _ := benchTiming(60000)
	a := stav1.New(tm, workers())
	defer a.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Run(tm.FullUpdate())
	}
}

func BenchmarkFig10FullTimingV2Taskflow(b *testing.B) {
	tm, _ := benchTiming(60000)
	a := stav2.New(tm, workers())
	defer a.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Run(tm.FullUpdate())
	}
}

// ---- Figure 12: one DNN training epoch per backend, 3-layer and
// 5-layer architectures (batch 100, lr 0.001, paper Section IV-C).

func benchMLData() (dnn.Config, *mnist.Dataset) {
	cfg, data := experiments.MLConfig(dnn.Arch3, 1, 2000)
	return cfg, data
}

func BenchmarkFig12DNNEpochTaskflow(b *testing.B) {
	cfg, data := benchMLData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnn.TrainTaskflow(cfg, data, workers())
	}
}

func BenchmarkFig12DNNEpochTBB(b *testing.B) {
	cfg, data := benchMLData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnn.TrainFlowGraph(cfg, data, workers())
	}
}

func BenchmarkFig12DNNEpochOMP(b *testing.B) {
	cfg, data := benchMLData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnn.TrainOMP(cfg, data, workers())
	}
}

func BenchmarkFig12DNNEpochSequential(b *testing.B) {
	cfg, data := benchMLData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnn.TrainSequential(cfg, data)
	}
}

func BenchmarkFig12DNN5LayerTaskflow(b *testing.B) {
	cfg, data := experiments.MLConfig(dnn.Arch5, 1, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnn.TrainTaskflow(cfg, data, workers())
	}
}
