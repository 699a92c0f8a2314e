package core

// Subflow builds a dynamic task dependency graph from inside a running task
// (paper Section III-D). It embeds the same builder as Taskflow, so every
// Emplace / EmplaceSubflow / Placeholder / Composed call is the one static
// tasking uses, and programmers need not learn a different API set.
//
// By default a spawned subflow joins its parent task: the parent's
// successors observe the completion of the entire child graph. Detach makes
// the subflow execute independently; a detached subflow eventually joins the
// end of the topology of its parent task.
//
// A Subflow is only valid during the invocation of the task it was passed
// to; retaining it afterwards is a programming error.
type Subflow struct {
	builder
	topo     *topology
	detached bool
}

var _ FlowBuilder = (*Subflow)(nil)

// Detach severs the subflow from its parent task, letting its execution
// flow independently of the parent's subsequent dependency constraints.
func (sf *Subflow) Detach() { sf.detached = true }

// Join re-attaches the subflow to its parent task (the default behaviour),
// undoing a previous Detach.
func (sf *Subflow) Join() { sf.detached = false }

// IsDetached reports whether the subflow is currently detached.
func (sf *Subflow) IsDetached() bool { return sf.detached }

// workerCount implements FlowBuilder: a subflow runs on the executor of
// the topology that spawned it.
func (sf *Subflow) workerCount() int { return sf.topo.exec.NumWorkers() }
