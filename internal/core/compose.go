package core

// Composition lets a taskflow embed another taskflow as a single module
// task (Cpp-Taskflow's composed_of), promoting the paper's Section III-F
// goal of building large parallel programs from smaller, structurally
// correct patterns. The child keeps ownership of its graph; the module
// task spawns it as a joined subflow at runtime, so the parent's
// successors wait for the whole child graph.

// Composed creates a module task that runs the present graph of child when
// executed, in a Taskflow or inside a Subflow alike. The child graph is
// shared, not copied: it must stay unmodified and must not be dispatched on
// its own (or composed a second time into a concurrently running graph)
// while a topology containing the module task is executing — the same
// aliasing rule as Cpp-Taskflow's composed_of. Composing a taskflow into
// itself panics.
func (b *builder) Composed(child *Taskflow) Task {
	if child.g == b.g {
		panic("core: Composed of a taskflow into itself")
	}
	name := child.name
	if name == "" {
		name = "module"
	}
	return b.EmplaceSubflow(func(sf *Subflow) {
		sf.spawnGraph(child.g)
	}).Name(name)
}

// spawnGraph splices a prebuilt graph into the subflow's spawn slot so it
// executes as this subflow's child graph. It may be called at most once
// per Subflow and must not be mixed with Emplace calls on the same
// subflow. The graph of the subflow's own running topology is refused —
// it holds the spawning task, so the splice would recurse forever — with
// a panic the task records as its error.
func (sf *Subflow) spawnGraph(g *graph) {
	if sf.g.len() > 0 {
		panic("core: spawnGraph on a non-empty subflow")
	}
	if g == sf.topo.graph {
		panic("core: Composed module would spawn the graph of its own running topology")
	}
	sf.g.nodes = append(sf.g.nodes, g.nodes...)
}
