package core

// Task is a lightweight handle that wraps a node in a task dependency graph
// (paper Section III-A). Handles are value types; copying a Task aliases the
// same node. The zero Task is empty — a placeholder handle not yet
// associated with a node — which is useful when the callable target cannot
// be decided until later in the program.
type Task struct {
	node *node
}

// IsEmpty reports whether the handle is associated with a node.
func (t Task) IsEmpty() bool { return t.node == nil }

// Name assigns a display name to the task (used by Dump) and returns the
// handle for chaining.
func (t Task) Name(name string) Task {
	t.must("Name")
	t.node.name = name
	return t
}

// NameOf returns the task's assigned name ("" if unnamed).
func (t Task) NameOf() string {
	t.must("NameOf")
	return t.node.name
}

// Precede adds dependency edges so that t runs before each task in others
// (paper: A.precede(B, C)). It returns t for chaining.
func (t Task) Precede(others ...Task) Task {
	n := t.edit("Precede")
	for _, o := range others {
		n.precede(o.edit("Precede"))
	}
	return t
}

// Succeed adds dependency edges so that t runs after each task in others.
// It returns t for chaining.
func (t Task) Succeed(others ...Task) Task {
	n := t.edit("Succeed")
	for _, o := range others {
		o.edit("Succeed").precede(n)
	}
	return t
}

// Work assigns (or replaces) the static callable of the task. It is how a
// placeholder acquires its work once the target is known. A condition task
// that already has successors cannot change kind: its out-edges were wired
// weak.
func (t Task) Work(fn func()) Task {
	t.rebind("Work", false).work = fn
	return t
}

// WorkCondition assigns (or replaces) a condition callable. Because edges
// leaving a condition task are weak, the kind must be decided before any
// Precede call wires successors; assigning condition work to a task that
// already has successors panics.
func (t Task) WorkCondition(fn func() int) Task {
	t.rebind("WorkCondition", true).work = fn
	return t
}

// rebind returns the task's node for its work to be replaced by work of the
// condition kind or not. It refuses a dead handle, and a flip between
// condition and non-condition once successors are wired, which would leave
// stale strong/weak edge accounting.
func (t Task) rebind(op string, condition bool) *node {
	n := t.edit(op)
	if n.succCount > 0 && n.isCondition() != condition {
		panic("core: " + op + " would change the condition-ness of a task that already has successors")
	}
	return n
}

// IsPlaceholder reports whether the task currently has no work assigned.
func (t Task) IsPlaceholder() bool {
	t.must("IsPlaceholder")
	return t.node.work == nil
}

// NumSuccessors returns the number of outgoing dependency edges.
func (t Task) NumSuccessors() int {
	t.must("NumSuccessors")
	return t.node.numSuccessors()
}

// NumDependents returns the number of incoming dependency edges.
func (t Task) NumDependents() int {
	t.must("NumDependents")
	return int(t.node.numDependents)
}

// edit returns the task's node for a builder mutation, after must, and
// marks the compiled run state of the node's graph stale: the next launch
// or spawn of the graph compiles its sources, links and dense paths again
// (graph.compile) before it runs again. Every builder mutation goes through
// here or builder.add.
func (t Task) edit(op string) *node {
	t.must(op)
	t.node.g.edits++
	return t.node
}

// must rejects an empty handle and, as far as it can be told, a dead one:
// Taskflow.Reclaim ends the life of every handle into the graphs it
// reclaims, and their nodes stay poisoned until the storage is handed out
// again.
func (t Task) must(op string) {
	if t.node == nil {
		panic("core: " + op + " on an empty Task handle")
	}
	if t.node.idx == reclaimedIdx {
		panic("core: " + op + " on a Task of a reclaimed graph")
	}
}
