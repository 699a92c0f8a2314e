// Package dnn implements the deep-neural-network training experiment of
// the Cpp-Taskflow paper (Section IV-C): a multilayer perceptron trained
// with mini-batch gradient descent on MNIST-shaped data, parallelized with
// the coarse-grained task decomposition of the paper's Figure 11:
//
//   - the backward propagation of every mini-batch is grouped into
//     per-layer gradient tasks (Gi) and weight-update tasks (Ui),
//     pipelined layer by layer, so Ui overlaps Gi-1;
//
//   - a per-epoch shuffle task (Ei_Sj) runs ahead of the training chain,
//     with the number of shuffle storage slots limited to twice the worker
//     count to bound memory, so spare threads shuffle future epochs while
//     the current one trains.
//
// The same decomposition is built for the Taskflow, FlowGraph (TBB model)
// and OMP (OpenMP task-depend model) backends plus a sequential reference;
// all four produce bit-identical weights, which the tests verify.
//
// Paper parameters: 3-layer 784×32×32×10 and 5-layer 784×64×32×16×8×10
// architectures, batch size 100, learning rate 0.001. With MNIST's 60k
// training rows that is 600 batches and hence 600·(1+2·3)+1 = 4201 tasks
// per 3-layer epoch and 600·(1+2·5)+1 = 6601 per 5-layer epoch, exactly
// the counts the paper quotes.
package dnn

import (
	"math"
	"math/rand"

	"gotaskflow/internal/matrix"
	"gotaskflow/internal/mnist"
)

// Arch3 and Arch5 are the two architectures evaluated in the paper.
var (
	Arch3 = []int{mnist.Pixels, 32, 32, 10}
	Arch5 = []int{mnist.Pixels, 64, 32, 16, 8, 10}
)

// MLP is a multilayer perceptron with sigmoid hidden layers and a softmax
// cross-entropy output.
type MLP struct {
	Sizes []int
	W     []*matrix.Matrix // W[l] is Sizes[l] × Sizes[l+1]
	B     []*matrix.Matrix // B[l] is 1 × Sizes[l+1]
}

// numLayers returns the number of weight layers (the paper's "3-layer" and
// "5-layer" counts).
func (n *MLP) numLayers() int { return len(n.W) }

// newMLP builds a deterministic Xavier-initialized network.
func newMLP(sizes []int, seed int64) *MLP {
	if len(sizes) < 2 {
		panic("dnn: need at least input and output sizes")
	}
	n := &MLP{Sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		std := math.Sqrt(2.0 / float64(sizes[l]+sizes[l+1]))
		n.W = append(n.W, matrix.Randn(sizes[l], sizes[l+1], std, seed+int64(l)*101))
		n.B = append(n.B, matrix.New(1, sizes[l+1]))
	}
	return n
}

// Clone deep-copies the network.
func (n *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), n.Sizes...)}
	for l := range n.W {
		c.W = append(c.W, n.W[l].Clone())
		c.B = append(c.B, n.B[l].Clone())
	}
	return c
}

// Equal reports whether two networks have identical parameters within eps.
func (n *MLP) Equal(o *MLP, eps float64) bool {
	if n.numLayers() != o.numLayers() {
		return false
	}
	for l := range n.W {
		if !matrix.Equal(n.W[l], o.W[l], eps) || !matrix.Equal(n.B[l], o.B[l], eps) {
			return false
		}
	}
	return true
}

// trainer owns the per-batch scratch buffers for one network. The task
// decomposition serializes batches (each batch's updates precede the next
// batch's forward pass), so one scratch set suffices and is reused, as in
// the paper's implementation.
type trainer struct {
	Net   *MLP
	LR    float64
	Batch int

	X      *matrix.Matrix   // current batch inputs
	labels []uint8          // current batch labels
	A      []*matrix.Matrix // activations per layer
	delta  []*matrix.Matrix // back-propagated errors per layer
	dW     []*matrix.Matrix
	dB     []*matrix.Matrix
}

// newTrainer allocates scratch for the given batch size.
func newTrainer(net *MLP, lr float64, batch int) *trainer {
	tr := &trainer{
		Net:    net,
		LR:     lr,
		Batch:  batch,
		X:      matrix.New(batch, net.Sizes[0]),
		labels: make([]uint8, batch),
	}
	for l := 0; l < net.numLayers(); l++ {
		tr.A = append(tr.A, matrix.New(batch, net.Sizes[l+1]))
		tr.delta = append(tr.delta, matrix.New(batch, net.Sizes[l+1]))
		tr.dW = append(tr.dW, matrix.New(net.Sizes[l], net.Sizes[l+1]))
		tr.dB = append(tr.dB, matrix.New(1, net.Sizes[l+1]))
	}
	return tr
}

// loadBatch copies rows [beg, beg+Batch) of the (already shuffled) images
// and labels into the input buffer.
func (tr *trainer) loadBatch(images [][]float64, labels []uint8, beg int) {
	for i := 0; i < tr.Batch; i++ {
		copy(tr.X.Row(i), images[beg+i])
		tr.labels[i] = labels[beg+i]
	}
}

// forward runs the forward pass on the loaded batch, returns the mean
// cross-entropy loss, and seeds the output-layer delta — the paper's
// per-batch forward task F.
func (tr *trainer) forward() float64 {
	in := tr.X
	last := tr.Net.numLayers() - 1
	for l := 0; l <= last; l++ {
		matrix.MulTo(tr.A[l], in, tr.Net.W[l])
		tr.A[l].AddRowVec(tr.Net.B[l])
		if l < last {
			tr.A[l].Sigmoid()
		} else {
			tr.A[l].SoftmaxRows()
		}
		in = tr.A[l]
	}
	loss := matrix.CrossEntropy(tr.A[last], tr.labels)
	tr.delta[last].CopyFrom(tr.A[last])
	tr.delta[last].SoftmaxCrossEntropyGrad(tr.labels)
	return loss
}

// gradient computes layer l's weight/bias gradients from delta[l] and
// back-propagates delta[l-1] — the paper's task Gi. It must run for layers
// in descending order; it reads W[l] (pre-update), so the matching Update
// may run concurrently with Gradient(l-1).
func (tr *trainer) gradient(l int) {
	aIn := tr.X
	if l > 0 {
		aIn = tr.A[l-1]
	}
	matrix.MulATBTo(tr.dW[l], aIn, tr.delta[l])
	matrix.ColSumTo(tr.dB[l], tr.delta[l])
	if l > 0 {
		matrix.MulABTTo(tr.delta[l-1], tr.delta[l], tr.Net.W[l])
		tr.delta[l-1].SigmoidGradFrom(tr.A[l-1])
	}
}

// update applies the SGD step to layer l — the paper's task Ui.
func (tr *trainer) update(l int) {
	tr.Net.W[l].AddScaled(-tr.LR, tr.dW[l])
	tr.Net.B[l].AddScaled(-tr.LR, tr.dB[l])
}

// trainBatch runs one full batch sequentially: forward, all gradients,
// all updates. This is the semantics every task decomposition must match.
func (tr *trainer) trainBatch(images [][]float64, labels []uint8, beg int) float64 {
	tr.loadBatch(images, labels, beg)
	loss := tr.forward()
	for l := tr.Net.numLayers() - 1; l >= 0; l-- {
		tr.gradient(l)
	}
	for l := tr.Net.numLayers() - 1; l >= 0; l-- {
		tr.update(l)
	}
	return loss
}

// predict returns the argmax class for each row of a dataset slice using a
// throwaway forward pass.
func predict(net *MLP, images [][]float64) []uint8 {
	out := make([]uint8, len(images))
	tr := newTrainer(net, 0, 1)
	for i, img := range images {
		copy(tr.X.Row(0), img)
		tr.labels[0] = 0
		tr.forward()
		probs := tr.A[net.numLayers()-1].Row(0)
		best := 0
		for j, p := range probs {
			if p > probs[best] {
				best = j
			}
		}
		out[i] = uint8(best)
	}
	return out
}

// Accuracy scores a network against a dataset.
func Accuracy(net *MLP, d *mnist.Dataset) float64 {
	pred := predict(net, d.Images)
	correct := 0
	for i := range pred {
		if pred[i] == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// shufflePerm computes the epoch-e permutation of the dataset. It depends
// only on (seed, epoch), so every backend sees identical batches however
// the permuted copy itself is parallelized.
func shufflePerm(d *mnist.Dataset, seed int64, epoch int) []int {
	rng := rand.New(rand.NewSource(seed ^ int64(epoch)*0x9e3779b9))
	return rng.Perm(d.Len())
}

// shuffled produces the epoch-e permuted copy of the dataset into the slot
// buffers — the paper's per-epoch shuffle task body.
func shuffled(d *mnist.Dataset, seed int64, epoch int, imgs [][]float64, labels []uint8) {
	for i, p := range shufflePerm(d, seed, epoch) {
		imgs[i] = d.Images[p]
		labels[i] = d.Labels[p]
	}
}

// Config collects the training hyperparameters of the experiment.
type Config struct {
	Sizes     []int
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// NumTasksPerEpoch returns the task count of one epoch under the Figure-11
// decomposition: one shuffle + per batch (one forward + one gradient and
// one update per layer). For the paper's parameters this reproduces the
// quoted 4201 (3-layer) and 6601 (5-layer) tasks.
func (cfg Config) NumTasksPerEpoch(datasetLen int) int {
	batches := datasetLen / cfg.BatchSize
	layers := len(cfg.Sizes) - 1
	return 1 + batches*(1+2*layers)
}

// TrainSequential is the single-threaded reference implementation.
// It returns the trained network and the mean loss per epoch.
func TrainSequential(cfg Config, d *mnist.Dataset) (*MLP, []float64) {
	net := newMLP(cfg.Sizes, cfg.Seed)
	tr := newTrainer(net, cfg.LR, cfg.BatchSize)
	batches := d.Len() / cfg.BatchSize
	losses := make([]float64, cfg.Epochs)
	imgs := make([][]float64, d.Len())
	labels := make([]uint8, d.Len())
	for e := 0; e < cfg.Epochs; e++ {
		shuffled(d, cfg.Seed, e, imgs, labels)
		var sum float64
		for b := 0; b < batches; b++ {
			sum += tr.trainBatch(imgs, labels, b*cfg.BatchSize)
		}
		losses[e] = sum / float64(batches)
	}
	return net, losses
}
