package core

import (
	"fmt"
	"sync/atomic"

	"gotaskflow/internal/executor"
)

// node is one vertex of a task dependency graph. It stores one polymorphic
// work value — the Go counterpart of the paper's std::variant-based function
// wrapper, whose alternative is the task kind — its successor list, and the
// runtime join counter used during execution.
type node struct {
	// work is what the task runs, and its dynamic type is the kind: func()
	// static work; func() error or func(context.Context) error fallible, an
	// error fail-fast-cancels the topology; func(*Subflow) a dynamic task;
	// func() int a condition task, whose result picks the one successor to
	// signal over weak out-edges (not counted by join counters: branches and
	// loops); a Module (EmplaceModule); a *Taskflow (Composed), whose present
	// graph is spawned in place. nil is a placeholder, a synchronization point.
	work any

	// Successor edges: the first four live inline (most task graphs —
	// wavefronts, circuit netlists, training pipelines, and the paper's
	// degree-4-bounded random DAGs — have fanout <= 4, so the common case
	// allocates nothing); the rest overflow to a slice.
	succInline [4]*node
	succSpill  []*node

	// idx is the node's position in its graph's node list, assigned at
	// emplace time: the cycle check compares and indexes with it instead of
	// allocating a map per dispatch. Reclaim poisons it (reclaimedIdx) until
	// the node's storage is handed out again. succCount is the out-degree.
	idx       int32
	succCount int32

	// numDependents counts strong in-edges (those participating in the
	// join counter); weakPred is set by an in-edge from a condition task. A
	// node is a topology source only when it has neither. fused is the
	// node's compiled link (fusable), and dense says that its body is in
	// its graph's body table (graph.bodies, at position g.at[idx]); both
	// are compiled with the graph (graph.compile).
	numDependents int32
	weakPred      bool
	fused         bool
	dense         bool

	// traceID is a process-unique task identity assigned at allocation,
	// used by trace exports to match dependency-release events to the
	// spans they released (node pointers are unstable identity across
	// text formats; a counter is not).
	traceID uint64

	// join is the number of unfinished dependents; a node becomes ready
	// when it drops to zero. Armed at dispatch and by each release (arm).
	join atomic.Int32

	// children counts unfinished nodes of a joined spawned subflow; the
	// node's completion is deferred until it drains.
	children atomic.Int32

	// execCount/execDurNs record the node's body executions and their
	// summed duration within the current run. Written only when the
	// topology collects run stats (see stats.go); execDurNs stays zero
	// unless timing was requested. Plain words: launch zeroes them before
	// any source is submitted, one node's executions (retries, loop
	// iterations, re-runs) are ordered by the release chain that queues
	// each one after the last, and the readers (hotTasks, the annotated
	// DOT dump) run after the topology's done signal — all but a debug
	// endpoint's mid-run scrape, which is best-effort (debughttp).
	execCount uint64
	execDurNs int64

	// readyAtNs is the monotonic instant (executor.Nanos, latency.go) the
	// node's current execution became ready, i.e. was queued. Written by
	// whichever goroutine queues the execution and read by the worker
	// that runs it; the queue publication provides the happens-before
	// edge, so a plain field suffices. Stamped only when the topology
	// records latency histograms (topology.lat non-nil).
	readyAtNs int64

	// parent is the spawning node for joined-subflow members, nil for
	// top-level and detached nodes.
	parent *node

	// name is the display name ("" if unnamed). It lives in the node, not
	// in ext: graphs built per update name every task, and a 96-byte ext
	// per node to hold one string cost more than the 16 bytes here.
	name string

	// ext holds the node's rarely used cold fields (semaphore lists,
	// retry policy, spawned subgraph), allocated on first use. Most
	// graphs never touch them, and large graphs are built in bulk, so
	// keeping them out of line shrinks every node the arena allocates —
	// less to zero and less for the garbage collector to scan.
	ext *nodeExt

	// g is the graph the node was emplaced in; g.topo is the topology it
	// runs under.
	g *graph

	// rbox is the node's intrusive task slot: a Runnable interface value
	// holding the node itself, initialized once at allocation. The
	// scheduler's currency is &n.rbox, so submitting an execution pushes a
	// pre-existing pointer — no closure is minted and nothing is boxed on
	// the hot path. A node has at most one outstanding scheduled execution
	// (the join-counter protocol guarantees it), so one slot suffices.
	rbox executor.Runnable
}

// nodeExt is the out-of-line cold part of a node; see node.ext.
type nodeExt struct {
	// acquires lists semaphores the node must obtain before each
	// execution (kept sorted by identity); releases lists semaphores it
	// returns units to afterwards.
	acquires []*Semaphore
	releases []*Semaphore

	// subgraph records the child graph spawned at runtime (for joining,
	// re-dispatch invalidation and DOT dumps).
	subgraph *graph
	detached bool

	// retry is the node's failure-retry policy (nil: fail immediately);
	// attempts counts the failures of the current execution. attempts is
	// only touched by the node's own execution and the timer resubmitting
	// it, which are strictly ordered.
	retry    *retryPolicy
	attempts int
}

// extra returns the node's cold-field block, allocating it on first use.
// Callers mutate it only while they own the node (graph construction, or
// the node's own execution).
func (n *node) extra() *nodeExt {
	if n.ext == nil {
		n.ext = &nodeExt{}
	}
	return n.ext
}

// hasAcquires reports whether the node must obtain semaphores before each
// execution — the scheduling hot path's one-branch test for the rare case.
func (n *node) hasAcquires() bool {
	return n.ext != nil && len(n.ext.acquires) > 0
}

// retryPolicy returns the node's retry policy (nil when absent) — like
// hasAcquires, a one-branch test for the common no-retry case.
func (n *node) retryPolicy() *retryPolicy {
	if n.ext != nil {
		return n.ext.retry
	}
	return nil
}

// semAcquires returns the node's acquisition list (nil when absent).
func (n *node) semAcquires() []*Semaphore {
	if n.ext != nil {
		return n.ext.acquires
	}
	return nil
}

// spawned returns the child graph recorded by the node's last execution.
func (n *node) spawned() *graph {
	if n.ext != nil {
		return n.ext.subgraph
	}
	return nil
}

func (n *node) precede(m *node) {
	if int(n.succCount) < len(n.succInline) {
		n.succInline[n.succCount] = m
	} else {
		if n.succSpill == nil {
			// Skip append's 1->2->4 regrowth: high-fanout nodes land here
			// once and then double from a useful size.
			n.succSpill = make([]*node, 0, 4)
		}
		n.succSpill = append(n.succSpill, m)
	}
	n.succCount++
	if n.isCondition() {
		m.weakPred = true
	} else {
		m.numDependents++
	}
}

func (n *node) isCondition() bool {
	_, ok := n.work.(func() int)
	return ok
}

// Run implements executor.Runnable: one execution of the node under its
// current topology, and then the execution each one hands on as its
// continuation — Algorithm 1's task cache as a loop in this frame. Static
// bodies run in runLinks' loop, every other kind, and a skipped execution,
// through runNode. The executor invokes it through the node's intrusive
// rbox slot.
func (n *node) Run(ctx executor.Context) {
	// Every execution the loop goes on with — a successor, a spawned child,
	// a joined parent — runs under the topology of the first.
	t := n.g.topo
	for n != nil {
		if n.static() && !t.cancelled.Load() {
			n = t.runLinks(ctx, n)
		} else if n = t.runNode(ctx, n); n != nil {
			ctx.Continue(n.ref())
		}
	}
}

// static reports whether n's body is one runLinks runs: func(), or
// func() error, without a retry policy.
func (n *node) static() bool {
	switch n.work.(type) {
	case func(), func() error:
		return n.retryPolicy() == nil
	}
	return false
}

// fusable reports whether n→succInline[0] is a fused link: n has that one
// successor and no cold fields (no semaphore to release); s has n as its one
// predecessor, no condition task beside it, no cold fields (no semaphore to
// take) and a static body. Releasing s is then its arm and nothing else — no
// join counter, no count to settle, nothing to admit or hand over — and its
// body runs next in the same loop (runLinks). It is compiled into n.fused
// by graph.compile, and holds until the next edit (Task.edit).
func (n *node) fusable() bool {
	if n.succCount != 1 || n.ext != nil {
		return false
	}
	s := n.succInline[0]
	return s.numDependents == 1 && !s.weakPred && s.ext == nil && s.static()
}

// plain reports whether n's body is a func(), the kind a dense path runs.
func (n *node) plain() bool {
	_, ok := n.work.(func())
	return ok
}

// denseLink reports whether n's compiled link joins two plain bodies: a
// step of a dense path (graph.lay).
func (n *node) denseLink() bool {
	return n.fused && n.plain() && n.succInline[0].plain()
}

// ref returns the node's submit-ready task reference.
func (n *node) ref() *executor.Runnable { return &n.rbox }

// isSource reports whether the node starts when its topology starts.
func (n *node) isSource() bool { return n.numDependents == 0 && !n.weakPred }

// successor returns the i-th successor in insertion order.
func (n *node) successor(i int) *node {
	if i < len(n.succInline) {
		return n.succInline[i]
	}
	return n.succSpill[i-len(n.succInline)]
}

// numSuccessors returns the out-degree.
func (n *node) numSuccessors() int { return int(n.succCount) }

// inlineSuccs returns the successors stored inline; the rest are succSpill.
func (n *node) inlineSuccs() []*node {
	return n.succInline[:min(int(n.succCount), len(n.succInline))]
}

// eachSuccessor visits every successor in insertion order.
func (n *node) eachSuccessor(visit func(*node)) {
	for _, s := range n.inlineSuccs() {
		visit(s)
	}
	for _, s := range n.succSpill {
		visit(s)
	}
}

// forward reports whether every strong edge leaving n leads to a node
// emplaced after it. A graph whose nodes are all forward is in topological
// order as emplaced, hence acyclic; see findCycleError.
func (n *node) forward() bool {
	if n.isCondition() {
		return true // out-edges of condition tasks are weak
	}
	for _, s := range n.inlineSuccs() {
		if s.idx <= n.idx {
			return false
		}
	}
	for _, s := range n.succSpill {
		if s.idx <= n.idx {
			return false
		}
	}
	return true
}

// label returns the display name used in DOT dumps and errors.
func (n *node) label(i int) string {
	if n.name != "" {
		return n.name
	}
	return fmt.Sprintf("p%#x", i)
}

// traceIDCounter hands out process-unique node identities, a block's worth
// at a time (graph.grow); see node.traceID. The zero value is reserved so a
// zero TaskMeta is distinguishable from any real task.
var traceIDCounter atomic.Uint64

// Describe implements executor.Runnable: the task identity carried into
// trace events. Building it copies string headers and integers — no
// allocation on the traced hot path.
func (n *node) Describe() executor.TaskMeta {
	t := n.g.topo
	if t == nil {
		return executor.TaskMeta{Name: n.name, ID: n.traceID, Idx: n.idx}
	}
	return executor.TaskMeta{Flow: t.flowName, Name: n.name, ID: n.traceID, Idx: n.idx, Gen: t.gen.Load()}
}

// arenaChunk is the node-arena block size: nodes are allocated in blocks
// to cut per-task allocation cost for large graphs (million-scale tasking,
// paper Section IV). Blocks give nodes stable addresses, which Task
// handles rely on.
const arenaChunk = 128

// reclaimedIdx is the idx of a node whose graph was reclaimed; Task.must
// refuses handles to such nodes until the storage is handed out again.
const reclaimedIdx = -1

// graph is an ordered collection of nodes under construction or execution.
type graph struct {
	nodes []*node
	arena []node // the unused tail of the newest block

	// store is the owning Taskflow's free list (nil for subflow graphs,
	// whose storage is left to the collector); blocks lists every arena
	// block drawn through it, so Reclaim can hand them back. recycled
	// marks the newest block as one that came off the free list: its nodes
	// still hold what their previous tenants left and are zeroed as they
	// are handed out.
	store    *graphStore
	blocks   [][]node
	recycled bool

	// lastID is the trace identity of the node handed out last. A block's
	// worth is reserved from traceIDCounter with the block, so alloc does
	// not pay for an atomic per node.
	lastID uint64

	// composing is set while a Composed task runs the graph as its joined
	// children (topology.compose); a second composition fails meanwhile.
	composing atomic.Bool

	// edits counts the builder's mutations of the graph (Task.edit,
	// builder.add); the compiled run state is stale once it differs from
	// built, the count it was compiled at (compile).
	edits uint64

	// topo is the topology the graph's nodes run under: set by the launch
	// that arms the graph, or by the spawn that runs it as a subflow or a
	// Composed child, and cleared by a recompile.
	topo *topology

	// The compiled run state, which every launch and spawn of the graph
	// reads (compile). err is why the graph can never start, nil if it can.
	// sources and semSources are its sources, split by whether they must
	// pass semaphores first. hasCond says that it has a condition task and
	// dynamic that it has a subflow or a Composed task. Every node's link is
	// compiled into node.fused, and the dense paths — maximal runs of plain
	// bodies joined by fused links — are laid out contiguously in bodies,
	// each path followed by a nil, with path[i] the node whose body is
	// bodies[i] (at a nil, the path's last node) and at[idx] the position of
	// the body of the dense node with that idx; at is left empty when the
	// graph has no dense path.
	built      uint64
	err        error
	sources    []*executor.Runnable
	semSources []*node
	hasCond    bool
	dynamic    bool
	bodies     []func()
	path       []*node
	at         []int32
}

// graphStore is a Taskflow's free list of graph storage, filled by Reclaim
// and drawn from before the allocator: arena blocks (last in, first out, so
// the next graph is built in the memory the last one left warm in cache) and
// emptied graph objects, which keep the capacity of their nodes and blocks
// slices. It holds what the largest reclaimed graphs needed for as long as
// the Taskflow lives, together with whatever those nodes still reference.
type graphStore struct {
	blocks [][]node
	graphs []*graph
}

// graph returns an empty graph drawing on s.
func (s *graphStore) graph() *graph {
	if k := len(s.graphs); k > 0 {
		g := s.graphs[k-1]
		s.graphs[k-1] = nil
		s.graphs = s.graphs[:k-1]
		return g
	}
	return &graph{store: s}
}

// reclaim poisons g's nodes and takes its storage back. The caller
// guarantees nothing runs or references g any more.
func (s *graphStore) reclaim(g *graph) {
	for _, n := range g.nodes {
		n.idx = reclaimedIdx
	}
	s.blocks = append(s.blocks, g.blocks...)
	clear(g.blocks)
	*g = graph{
		store: s, nodes: g.nodes[:0], blocks: g.blocks[:0],
		sources: g.sources[:0], semSources: g.semSources[:0],
		bodies: g.bodies[:0], path: g.path[:0], at: g.at[:0],
	}
	s.graphs = append(s.graphs, g)
}

// grow gives g a new arena block and the trace identities for its nodes.
func (g *graph) grow() {
	g.lastID = traceIDCounter.Add(arenaChunk) - arenaChunk
	s := g.store
	if s == nil {
		g.arena = make([]node, arenaChunk)
		return
	}
	if k := len(s.blocks); k > 0 {
		g.arena, g.recycled = s.blocks[k-1], true
		s.blocks[k-1] = nil
		s.blocks = s.blocks[:k-1]
	} else {
		g.arena, g.recycled = make([]node, arenaChunk), false
	}
	g.blocks = append(g.blocks, g.arena)
}

// alloc returns a zeroed node from the arena with its intrusive task slot
// armed; a recycled one keeps the capacity of its successor spill.
func (g *graph) alloc() *node {
	if len(g.arena) == 0 {
		g.grow()
	}
	n := &g.arena[0]
	g.arena = g.arena[1:]
	if g.recycled {
		// The spill slice outlives its tenant: a graph rebuilt per update
		// with more than four successors a node would otherwise allocate
		// one again for each of them, every time.
		spill := n.succSpill
		clear(spill)
		*n = node{succSpill: spill[:0]}
	}
	n.rbox = n
	n.g = g
	g.lastID++
	n.traceID = g.lastID
	return n
}

func (g *graph) len() int { return len(g.nodes) }

// compile brings g's compiled run state up to date with its last edit and
// returns why g can never start: ErrNoSource, a strong cycle behind the
// sources (an edge against emplace order sends the check to kahn), or nil.
// It is the one place a graph is armed for a run — by a launch (Run,
// Dispatch) and by a spawn (a subflow, a Composed child) alike — and costs
// one compare when nothing changed. A recompile clears g.topo, so the next
// launch re-arms every node (topology.mustSweep). A refused graph has no
// dense node and no source.
func (g *graph) compile() error {
	if g.built == g.edits {
		return g.err
	}
	g.built, g.topo, g.err = g.edits, nil, nil
	g.hasCond, g.dynamic = false, false
	g.bodies, g.path, g.at = g.bodies[:0], g.path[:0], g.at[:0]
	nsrc, nsem, ordered := 0, 0, true
	for _, n := range g.nodes {
		switch n.work.(type) {
		case func() int:
			g.hasCond = true
		case func(*Subflow), *Taskflow:
			g.dynamic = true
		}
		ordered = ordered && n.forward()
		n.fused = n.fusable()
		g.mark(n)
		if n.isSource() {
			nsrc++
			if n.hasAcquires() {
				nsem++
			}
		}
	}
	g.sources, g.semSources = room(g.sources, nsrc-nsem), room(g.semSources, nsem)
	if nsrc == 0 && g.len() > 0 {
		g.err = ErrNoSource
	} else if !ordered {
		_, g.err = kahn(g)
	}
	if g.err != nil {
		return g.err
	}
	for _, n := range g.nodes {
		g.lay(n)
		switch {
		case !n.isSource():
		case n.hasAcquires():
			g.semSources = append(g.semSources, n)
		default:
			g.sources = append(g.sources, n.ref())
		}
	}
	return nil
}

// stampSources marks every compiled source of g ready at ns.
func (g *graph) stampSources(ns int64) {
	for _, r := range g.sources {
		(*r).(*node).readyAtNs = ns
	}
	for _, n := range g.semSources {
		n.readyAtNs = ns
	}
}

// mark takes n out of g's dense paths until lay puts it back and, when n's
// link is a dense step, marks its successor as no path's head (at = -1).
// The table is sized on the first mark for the most entries its paths can
// take — a path has two nodes or more, and a nil — so a graph without a
// dense path allocates nothing for it, and one with paths three slices.
func (g *graph) mark(n *node) {
	n.dense = false
	if !n.denseLink() {
		return
	}
	if k := len(g.nodes); len(g.at) == 0 {
		g.at = room(g.at, k)[:k]
		clear(g.at)
		g.bodies, g.path = room(g.bodies, k+k/2), room(g.path, k+k/2)
	}
	g.at[n.succInline[0].idx] = -1
}

// room returns s emptied, with room for n elements.
func room[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// lay appends the dense path that starts at n, if one does — n's link is a
// dense step and no dense step leads to n — to g's body table.
func (g *graph) lay(n *node) {
	if n.dense || !n.denseLink() || g.at[n.idx] < 0 {
		return
	}
	for {
		n.dense = true
		g.at[n.idx] = int32(len(g.bodies))
		g.bodies = append(g.bodies, n.work.(func()))
		g.path = append(g.path, n)
		if !n.denseLink() {
			break
		}
		n = n.succInline[0]
	}
	g.bodies = append(g.bodies, nil)
	g.path = append(g.path, n)
}
