package dnn

import (
	"math"
	"testing"

	"gotaskflow/internal/matrix"
	"gotaskflow/internal/mnist"
)

func smallCfg() Config {
	return Config{
		Sizes:     []int{mnist.Pixels, 16, 10},
		Epochs:    3,
		BatchSize: 20,
		LR:        0.05,
		Seed:      7,
	}
}

func TestNewMLPShapes(t *testing.T) {
	net := newMLP(Arch3, 1)
	if net.numLayers() != 3 {
		t.Fatalf("Arch3 has %d layers, want 3", net.numLayers())
	}
	net5 := newMLP(Arch5, 1)
	if net5.numLayers() != 5 {
		t.Fatalf("Arch5 has %d layers, want 5", net5.numLayers())
	}
	for l := 0; l < net.numLayers(); l++ {
		if net.W[l].Rows != net.Sizes[l] || net.W[l].Cols != net.Sizes[l+1] {
			t.Fatalf("W[%d] shape %dx%d", l, net.W[l].Rows, net.W[l].Cols)
		}
		if net.B[l].Rows != 1 || net.B[l].Cols != net.Sizes[l+1] {
			t.Fatalf("B[%d] shape wrong", l)
		}
	}
}

func TestNewMLPDeterministic(t *testing.T) {
	a, b := newMLP(Arch3, 5), newMLP(Arch3, 5)
	if !a.Equal(b, 0) {
		t.Fatal("same seed, different weights")
	}
	c := newMLP(Arch3, 6)
	if a.Equal(c, 0) {
		t.Fatal("different seed, same weights")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := newMLP(Arch3, 1)
	b := a.Clone()
	b.W[0].Data[0] += 1
	if a.Equal(b, 0) {
		t.Fatal("Clone shares weight storage")
	}
}

// TestGradientCheck verifies analytic gradients against central finite
// differences on a tiny network.
func TestGradientCheck(t *testing.T) {
	sizes := []int{6, 5, 4}
	net := newMLP(sizes, 3)
	batch := 3
	tr := newTrainer(net, 0, batch)
	// Synthetic batch.
	for i := 0; i < batch; i++ {
		for j := 0; j < 6; j++ {
			tr.X.Set(i, j, float64((i*7+j*3)%5)/5)
		}
		tr.labels[i] = uint8(i % 4)
	}
	lossAt := func() float64 {
		// Forward without touching delta state beyond what Forward does.
		in := tr.X
		last := net.numLayers() - 1
		for l := 0; l <= last; l++ {
			matrix.MulTo(tr.A[l], in, net.W[l])
			tr.A[l].AddRowVec(net.B[l])
			if l < last {
				tr.A[l].Sigmoid()
			} else {
				tr.A[l].SoftmaxRows()
			}
			in = tr.A[l]
		}
		return matrix.CrossEntropy(tr.A[last], tr.labels)
	}
	tr.forward()
	for l := net.numLayers() - 1; l >= 0; l-- {
		tr.gradient(l)
	}
	const h = 1e-6
	for l := 0; l < net.numLayers(); l++ {
		for _, probe := range []struct {
			m, g *matrix.Matrix
		}{{net.W[l], tr.dW[l]}, {net.B[l], tr.dB[l]}} {
			for _, idx := range []int{0, len(probe.m.Data) / 2, len(probe.m.Data) - 1} {
				orig := probe.m.Data[idx]
				probe.m.Data[idx] = orig + h
				up := lossAt()
				probe.m.Data[idx] = orig - h
				down := lossAt()
				probe.m.Data[idx] = orig
				numeric := (up - down) / (2 * h)
				analytic := probe.g.Data[idx]
				if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d idx %d: analytic %v vs numeric %v", l, idx, analytic, numeric)
				}
			}
		}
	}
}

func TestSequentialLossDecreases(t *testing.T) {
	d := mnist.Synthetic(400, 11)
	cfg := smallCfg()
	cfg.Epochs = 10
	cfg.LR = 0.3
	_, losses := TrainSequential(cfg, d)
	if losses[len(losses)-1] >= losses[0]*0.9 {
		t.Fatalf("loss did not decrease: first %v, last %v", losses[0], losses[len(losses)-1])
	}
}

func TestAccuracyImproves(t *testing.T) {
	train := mnist.Synthetic(600, 21)
	test := mnist.Synthetic(200, 22)
	cfg := smallCfg()
	cfg.Epochs = 12
	cfg.LR = 0.2
	before := Accuracy(newMLP(cfg.Sizes, cfg.Seed), test)
	net, _ := TrainSequential(cfg, train)
	after := Accuracy(net, test)
	if after <= before+0.1 {
		t.Fatalf("accuracy %v -> %v; training ineffective", before, after)
	}
}

func TestNumTasksPerEpochMatchesPaper(t *testing.T) {
	// Paper Section IV-C: 4201 tasks per 3-layer epoch, 6601 per 5-layer
	// epoch, with 60k images and batch 100.
	c3 := Config{Sizes: Arch3, BatchSize: 100}
	if got := c3.NumTasksPerEpoch(60000); got != 4201 {
		t.Fatalf("3-layer tasks/epoch = %d, want 4201", got)
	}
	c5 := Config{Sizes: Arch5, BatchSize: 100}
	if got := c5.NumTasksPerEpoch(60000); got != 6601 {
		t.Fatalf("5-layer tasks/epoch = %d, want 6601", got)
	}
}

func TestAllBackendsMatchSequential(t *testing.T) {
	d := mnist.Synthetic(300, 31)
	cfg := smallCfg()
	want, wantLoss := TrainSequential(cfg, d)

	for _, workers := range []int{1, 2, 4} {
		gotTF, lossTF, err := TrainTaskflow(cfg, d, workers)
		if err != nil {
			t.Fatalf("Taskflow(%d workers): %v", workers, err)
		}
		if !want.Equal(gotTF, 0) {
			t.Fatalf("Taskflow(%d workers) weights differ from sequential", workers)
		}
		for e := range wantLoss {
			if lossTF[e] != wantLoss[e] {
				t.Fatalf("Taskflow(%d) loss[%d] = %v, want %v", workers, e, lossTF[e], wantLoss[e])
			}
		}
		gotFG, _ := TrainFlowGraph(cfg, d, workers)
		if !want.Equal(gotFG, 0) {
			t.Fatalf("FlowGraph(%d workers) weights differ from sequential", workers)
		}
		gotOMP, _ := TrainOMP(cfg, d, workers)
		if !want.Equal(gotOMP, 0) {
			t.Fatalf("OMP(%d workers) weights differ from sequential", workers)
		}
	}
}

func TestFiveLayerBackendsMatch(t *testing.T) {
	d := mnist.Synthetic(200, 41)
	cfg := Config{
		Sizes:     []int{mnist.Pixels, 16, 12, 10, 8, 10},
		Epochs:    2,
		BatchSize: 25,
		LR:        0.01,
		Seed:      9,
	}
	want, _ := TrainSequential(cfg, d)
	got, _, err := TrainTaskflow(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got, 0) {
		t.Fatal("5-layer Taskflow differs from sequential")
	}
	gotFG, _ := TrainFlowGraph(cfg, d, 2)
	if !want.Equal(gotFG, 0) {
		t.Fatal("5-layer FlowGraph differs from sequential")
	}
	gotOMP, _ := TrainOMP(cfg, d, 2)
	if !want.Equal(gotOMP, 0) {
		t.Fatal("5-layer OMP differs from sequential")
	}
}

func TestSlotCount(t *testing.T) {
	if numSlots(4, 100) != 8 {
		t.Fatalf("numSlots(4,100) = %d", numSlots(4, 100))
	}
	if numSlots(4, 3) != 3 {
		t.Fatalf("numSlots(4,3) = %d", numSlots(4, 3))
	}
	if numSlots(0, 5) != 1 {
		t.Fatalf("numSlots(0,5) = %d", numSlots(0, 5))
	}
}

func TestPredictShapes(t *testing.T) {
	net := newMLP([]int{mnist.Pixels, 8, 10}, 1)
	d := mnist.Synthetic(10, 1)
	pred := predict(net, d.Images)
	if len(pred) != 10 {
		t.Fatalf("Predict returned %d labels", len(pred))
	}
	for _, p := range pred {
		if p >= 10 {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}
