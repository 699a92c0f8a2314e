package core

// Composition lets a taskflow embed another taskflow as a single module
// task (Cpp-Taskflow's composed_of), promoting the paper's Section III-F
// goal of building large parallel programs from smaller, structurally
// correct patterns. The child keeps ownership of its graph; the module
// task spawns it in place as its joined children at runtime, so the
// parent's successors wait for the whole child graph. A module task
// (EmplaceModule) embeds work that is not a graph the same way: it counts
// the executions it starts on the task, and the last to retire completes it.

import (
	"errors"
	"fmt"

	"gotaskflow/internal/executor"
)

// ErrComposedInUse fails a Composed task whose child graph is already
// running: as the topology itself, or under another Composed task — an
// indirect composition cycle, or one child composed into two running graphs.
var ErrComposedInUse = errors.New("core: composed graph already running")

// Composed creates a module task that runs the present graph of child when
// executed, in a Taskflow or inside a Subflow alike. The child graph is
// shared, not copied: it must stay unmodified and must not be dispatched on
// its own while a topology containing the module task is executing — the
// same aliasing rule as Cpp-Taskflow's composed_of. Between executions any
// builder edit of the child is allowed: each execution arms the child graph
// as it finds it (spawn), and the child's own next Run rebuilds its run
// state. Composing a taskflow into itself panics; a composition already in
// flight fails the task with ErrComposedInUse.
func (b *builder) Composed(child *Taskflow) Task {
	if child.g == b.g {
		panic("core: Composed of a taskflow into itself")
	}
	name := child.name
	if name == "" {
		name = "module"
	}
	return b.add(child).Name(name)
}

// compose spawns g, the present graph of n's Composed child, as n's joined
// children, and reports whether it did, returning the child this worker
// continues with (spawn); false means n completes now. g is
// claimed until they drain (settle), so a composition already in flight
// fails the task instead of re-arming join counters in use. A refused
// graph is not recorded as n's spawn: the DOT dump and hotTasks walk it.
func (t *topology) compose(ctx executor.Context, n *node, g *graph) (*node, bool) {
	ext := n.extra()
	ext.subgraph = nil
	switch {
	case g.len() == 0:
	case g == t.graph:
		t.addErr(fmt.Errorf("core: task %q: Composed module would spawn the graph of its own running topology: %w", n.name, ErrComposedInUse))
	case !g.composing.CompareAndSwap(false, true):
		t.addErr(fmt.Errorf("core: task %q: %w", n.name, ErrComposedInUse))
	default:
		ext.subgraph = g
		if next, ok := t.spawn(ctx, n, g, true); ok {
			return next, true
		}
		g.composing.Store(false) // no source: nothing runs it
	}
	return nil, false
}

// Module is what a module task runs: work that goes on as executions of its
// own — a streaming pipeline's cells — rather than as one body, and ends
// the task when the last of them retires.
type Module interface {
	// Start begins one execution of the module on the worker running its
	// task. The count j keeps holds one unit, Start's: Start retires it
	// with j.Done, or hands it on to work it runs or submits. Every
	// further execution is counted (j.Add) before it is submitted and
	// retires with j.Done.
	Start(ctx executor.Context, j Join)
}

// EmplaceModule creates a task that runs m. The task completes — its
// successors start — when the last execution m counted retires, so no
// worker waits for it; m's failures, cancellation, flow and latency sink
// are those of the task's topology, reached through the Join.
func (b *builder) EmplaceModule(m Module) Task {
	return b.add(m)
}

// Join is a module task's completion handle for one execution of it. It
// counts the module's executions on the task's children word, as a joined
// subflow counts its nodes, while the task's own pending unit holds the
// topology open: an execution pays one atomic to retire.
type Join struct{ n *node }

// Add counts k more executions of the module.
func (j Join) Add(k int) { j.n.children.Add(int32(k)) }

// Done retires one execution. The worker settles its records first, for a
// waiter may be released by the last Done, which completes the task and
// hands its successors to this worker. The one a completion keeps back is
// queued, not continued: Done returns into the module's frame — Start's,
// when the module retires within it — and a condition loop over the task
// would otherwise nest a frame per iteration.
func (j Join) Done(ctx executor.Context) {
	ctx.Settle()
	if j.n.children.Add(-1) == 0 {
		if next := j.n.g.topo.finishNode(ctx, j.n); next != nil {
			ctx.Submit(next.ref())
		}
	}
}

// Busy reports whether the module execution j counts is still running.
func (j Join) Busy() bool { return j.n.children.Load() > 0 }

// Cancelled reports whether the topology was cancelled — by a failure, a
// context or Future.Cancel.
func (j Join) Cancelled() bool { return j.n.g.topo.cancelled.Load() }

// Fail records err against the topology and fail-fast-cancels it.
func (j Join) Fail(err error) { j.n.g.topo.fail(err) }

// Gen returns the topology's run generation (TaskMeta.Gen).
func (j Join) Gen() uint64 { return j.n.g.topo.gen.Load() }

// Latency returns the topology's latency sink, bound to its flow; nil when
// the scheduler records no histograms.
func (j Join) Latency() *executor.LatencySink { return j.n.g.topo.lat }
