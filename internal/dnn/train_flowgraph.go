package dnn

import (
	"gotaskflow/internal/flowgraph"
	"gotaskflow/internal/mnist"
)

// TrainFlowGraph trains the network with the Figure-11 decomposition
// expressed in the TBB FlowGraph model: one graph of continue_nodes for
// the whole run, explicit edges, and explicit TryPut on the source shuffle
// nodes — mirroring the paper's TBB implementation (Listing 8 style).
func TrainFlowGraph(cfg Config, d *mnist.Dataset, workers int) (*MLP, []float64) {
	net := newMLP(cfg.Sizes, cfg.Seed)
	tr := newTrainer(net, cfg.LR, cfg.BatchSize)
	batches := d.Len() / cfg.BatchSize
	layers := net.numLayers()
	losses := make([]float64, cfg.Epochs)
	slots := numSlots(workers, cfg.Epochs)
	store := newSlotStore(slots, d.Len())

	g := flowgraph.NewGraph(workers)
	defer g.Close()

	msg := flowgraph.ContinueMsg{}
	lastF := make([]*flowgraph.ContinueNode, cfg.Epochs)
	shuffles := make([]*flowgraph.ContinueNode, cfg.Epochs)
	var prevUs []*flowgraph.ContinueNode
	for e := 0; e < cfg.Epochs; e++ {
		e := e
		slot := e % slots
		shuffle := flowgraph.NewContinueNode(g, func(flowgraph.ContinueMsg) {
			shuffled(d, cfg.Seed, e, store.imgs[slot], store.labels[slot])
		})
		shuffles[e] = shuffle
		if e >= slots {
			flowgraph.MakeEdge(lastF[e-slots], shuffle)
		}
		for b := 0; b < batches; b++ {
			b := b
			f := flowgraph.NewContinueNode(g, func(flowgraph.ContinueMsg) {
				tr.loadBatch(store.imgs[slot], store.labels[slot], b*cfg.BatchSize)
				losses[e] += tr.forward()
			})
			flowgraph.MakeEdge(shuffle, f)
			for _, u := range prevUs {
				flowgraph.MakeEdge(u, f)
			}
			prev := f
			prevUs = prevUs[:0]
			for l := layers - 1; l >= 0; l-- {
				l := l
				grad := flowgraph.NewContinueNode(g, func(flowgraph.ContinueMsg) { tr.gradient(l) })
				flowgraph.MakeEdge(prev, grad)
				upd := flowgraph.NewContinueNode(g, func(flowgraph.ContinueMsg) { tr.update(l) })
				flowgraph.MakeEdge(grad, upd)
				prevUs = append(prevUs, upd)
				prev = grad
			}
			if b == batches-1 {
				lastF[e] = f
			}
		}
	}
	// Explicitly fire every source node (the first `slots` shuffles have
	// no predecessors), as TBB requires.
	for e := 0; e < slots && e < cfg.Epochs; e++ {
		shuffles[e].TryPut(msg)
	}
	g.WaitForAll()
	for e := range losses {
		losses[e] /= float64(batches)
	}
	return net, losses
}
