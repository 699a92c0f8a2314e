package main

import "sync/atomic"

// The "simplest design" floor of arXiv:2407.15805: a channel-fed pool with
// atomic join counters and nothing else — no stealing, no per-worker deque,
// no cache slot, no parking protocol beyond the channel's own. Whatever this
// matches the executor on, the executor's extra machinery has not earned.

type floorNode struct {
	fn   func()
	deps int32 // join count a run starts from
	join atomic.Int32
	succ []*floorNode
}

func (n *floorNode) precede(s *floorNode) {
	n.succ = append(n.succ, s)
	s.deps++
	s.join.Store(s.deps)
}

type floorPool struct {
	// ready holds every node that can be ready at once: workers send to
	// the channel they receive from, so a full buffer would deadlock them.
	ready   chan *floorNode
	pending atomic.Int64
	done    chan struct{}
	exited  chan struct{}
}

func newFloorPool(workers, maxReady int) *floorPool {
	p := &floorPool{ready: make(chan *floorNode, maxReady), done: make(chan struct{}, 1), exited: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for n := range p.ready {
				n.fn()
				for _, s := range n.succ {
					if s.join.Add(-1) == 0 {
						s.join.Store(s.deps) // re-arm for the next run
						p.ready <- s
					}
				}
				if p.pending.Add(-1) == 0 {
					p.done <- struct{}{}
				}
			}
			p.exited <- struct{}{}
		}()
	}
	return p
}

// run executes the graph once and returns when every node has run.
func (p *floorPool) run(nodes []*floorNode) {
	p.pending.Store(int64(len(nodes)))
	for _, n := range nodes {
		if n.deps == 0 {
			p.ready <- n
		}
	}
	<-p.done
}

// close stops the workers and waits for them to exit.
func (p *floorPool) close() {
	close(p.ready)
	for i := 0; i < cap(p.exited); i++ {
		<-p.exited
	}
}
