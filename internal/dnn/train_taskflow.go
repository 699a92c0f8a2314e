package dnn

import (
	"fmt"

	"gotaskflow/internal/core"
	"gotaskflow/internal/mnist"
)

// slotStore holds the bounded shuffle storage of the paper's Figure 11:
// at most 2×workers epochs' worth of shuffled views live at once.
type slotStore struct {
	imgs   [][][]float64
	labels [][]uint8
}

func newSlotStore(slots, n int) *slotStore {
	s := &slotStore{
		imgs:   make([][][]float64, slots),
		labels: make([][]uint8, slots),
	}
	for k := 0; k < slots; k++ {
		s.imgs[k] = make([][]float64, n)
		s.labels[k] = make([]uint8, n)
	}
	return s
}

// numSlots applies the paper's rule: storage degree is twice the number of
// threads, clamped to the epoch count.
func numSlots(workers, epochs int) int {
	s := 2 * workers
	if s > epochs {
		s = epochs
	}
	if s < 1 {
		s = 1
	}
	return s
}

// TrainTaskflow trains the network with the Figure-11 decomposition
// expressed as one static Cpp-Taskflow graph covering the full training
// run: per-epoch shuffle tasks Ei_Sj feeding per-batch pipelines
// F -> G(L-1) -> ... -> G(0) with each U(l) after G(l), and the next
// batch's F after every U of the previous batch. Task failures are
// returned, not re-panicked.
func TrainTaskflow(cfg Config, d *mnist.Dataset, workers int) (*MLP, []float64, error) {
	tf := core.New(workers)
	defer tf.Close()
	return TrainTaskflowShared(cfg, d, workers, tf)
}

// TrainTaskflowShared is TrainTaskflow on a caller-supplied taskflow,
// for callers that own the executor — e.g. to share a pool across
// experiments or to attach observability (metrics, tracing, the debug
// endpoint). workers still sizes the paper's bounded shuffle storage
// (2×workers slots) and should match the executor's worker count.
func TrainTaskflowShared(cfg Config, d *mnist.Dataset, workers int, tf *core.Taskflow) (*MLP, []float64, error) {
	net := newMLP(cfg.Sizes, cfg.Seed)
	tr := newTrainer(net, cfg.LR, cfg.BatchSize)
	batches := d.Len() / cfg.BatchSize
	layers := net.numLayers()
	losses := make([]float64, cfg.Epochs)
	slots := numSlots(workers, cfg.Epochs)
	store := newSlotStore(slots, d.Len())

	lastF := make([]core.Task, cfg.Epochs) // final forward task per epoch
	var prevUs []core.Task                 // update tasks of the previous batch
	for e := 0; e < cfg.Epochs; e++ {
		e := e
		slot := e % slots
		// Named after the paper's Figure-11 shuffle tasks so traces and
		// DOT dumps show the epoch boundaries; the per-batch pipeline
		// tasks stay anonymous (positional names) to keep construction
		// cheap in the sweep benchmarks. The permuted copy itself is a
		// guided parallel loop spawned as a subflow: the permutation is
		// computed serially (identical across backends), the row copies
		// load-balance across whatever workers are idle between epochs.
		shuffle := tf.EmplaceSubflow(func(sf *core.Subflow) {
			perm := shufflePerm(d, cfg.Seed, e)
			imgs, labels := store.imgs[slot], store.labels[slot]
			core.ParallelForIndex(sf, 0, len(perm), 1, func(i int) {
				p := perm[i]
				imgs[i] = d.Images[p]
				labels[i] = d.Labels[p]
			}, 0, core.WithPartitioner(core.Guided))
		}).Name(fmt.Sprintf("E%d_S", e))
		if e >= slots {
			// The slot is free once the epoch that last used it has
			// loaded its final batch.
			shuffle.Succeed(lastF[e-slots])
		}
		for b := 0; b < batches; b++ {
			b := b
			f := tf.Emplace1(func() {
				tr.loadBatch(store.imgs[slot], store.labels[slot], b*cfg.BatchSize)
				losses[e] += tr.forward()
			})
			f.Succeed(shuffle)
			f.Succeed(prevUs...)
			prev := f
			prevUs = prevUs[:0]
			for l := layers - 1; l >= 0; l-- {
				l := l
				g := tf.Emplace1(func() { tr.gradient(l) })
				g.Succeed(prev)
				u := tf.Emplace1(func() { tr.update(l) })
				u.Succeed(g)
				prevUs = append(prevUs, u)
				prev = g
			}
			if b == batches-1 {
				lastF[e] = f
			}
		}
	}
	if err := tf.WaitForAll(); err != nil {
		return nil, nil, err
	}
	for e := range losses {
		losses[e] /= float64(batches)
	}
	return net, losses, nil
}
