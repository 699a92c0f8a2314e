package dnn

import (
	"fmt"

	"gotaskflow/internal/mnist"
	"gotaskflow/internal/omp"
)

// TrainOMP trains the network with the Figure-11 decomposition expressed
// in the OpenMP task-depend model. As the paper stresses, this forces a
// hard-coded declaration order consistent with sequential execution and an
// explicit dependency token on both sides of every constraint, specific to
// the DNN architecture — the productivity cost Table III quantifies.
func TrainOMP(cfg Config, d *mnist.Dataset, workers int) (*MLP, []float64) {
	net := newMLP(cfg.Sizes, cfg.Seed)
	tr := newTrainer(net, cfg.LR, cfg.BatchSize)
	batches := d.Len() / cfg.BatchSize
	layers := net.numLayers()
	losses := make([]float64, cfg.Epochs)
	slots := numSlots(workers, cfg.Epochs)
	store := newSlotStore(slots, d.Len())

	team := omp.NewParallel(workers)
	defer team.Close()

	slotTok := func(e int) string { return fmt.Sprintf("slot_%d", e) }
	lastFTok := func(e int) string { return fmt.Sprintf("lastF_%d", e) }
	gTok := func(e, b, l int) string { return fmt.Sprintf("g_%d_%d_%d", e, b, l) }
	uTok := func(e, b, l int) string { return fmt.Sprintf("u_%d_%d_%d", e, b, l) }
	fTok := func(e, b int) string { return fmt.Sprintf("f_%d_%d", e, b) }

	team.Single(func(s *omp.Scope) {
		for e := 0; e < cfg.Epochs; e++ {
			e := e
			slot := e % slots
			// Shuffle task: writes the slot; waits for the last reader of
			// the epoch that previously used this slot.
			shuffleDeps := []omp.Dep{omp.Out(slotTok(e))}
			if e >= slots {
				shuffleDeps = append(shuffleDeps, omp.In(lastFTok(e-slots)))
			}
			s.Task(func() {
				shuffled(d, cfg.Seed, e, store.imgs[slot], store.labels[slot])
			}, shuffleDeps...)

			for b := 0; b < batches; b++ {
				b := b
				// Forward task: reads the slot, waits for every update of
				// the previous batch.
				fDeps := []omp.Dep{omp.In(slotTok(e))}
				if b > 0 || e > 0 {
					pe, pb := e, b-1
					if b == 0 {
						pe, pb = e-1, batches-1
					}
					for l := 0; l < layers; l++ {
						fDeps = append(fDeps, omp.In(uTok(pe, pb, l)))
					}
				}
				outs := []string{fTok(e, b)}
				if b == batches-1 {
					outs = append(outs, lastFTok(e))
				}
				fDeps = append(fDeps, omp.Out(outs...))
				s.Task(func() {
					tr.loadBatch(store.imgs[slot], store.labels[slot], b*cfg.BatchSize)
					losses[e] += tr.forward()
				}, fDeps...)

				// Gradient chain and updates, declared in sequential
				// (descending-layer) order.
				for l := layers - 1; l >= 0; l-- {
					l := l
					var gDeps []omp.Dep
					if l == layers-1 {
						gDeps = append(gDeps, omp.In(fTok(e, b)))
					} else {
						gDeps = append(gDeps, omp.In(gTok(e, b, l+1)))
					}
					gDeps = append(gDeps, omp.Out(gTok(e, b, l)))
					s.Task(func() { tr.gradient(l) }, gDeps...)
					s.Task(func() { tr.update(l) },
						omp.In(gTok(e, b, l)), omp.Out(uTok(e, b, l)))
				}
			}
		}
	})
	for e := range losses {
		losses[e] /= float64(batches)
	}
	return net, losses
}
