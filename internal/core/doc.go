// Package core implements the Cpp-Taskflow programming model in Go: a
// task-dependency-graph parallel programming library (IPDPS 2019,
// "Cpp-Taskflow: Fast Task-based Parallel Programming using Modern C++").
//
// # Programming model
//
// Users create tasks from ordinary functions, wire dependencies with
// Precede/Succeed, and dispatch the resulting directed acyclic graph to a
// work-stealing executor:
//
//	tf := core.New(0) // worker count; 0 = GOMAXPROCS
//	defer tf.Close()
//
//	ts := tf.Emplace(
//		func() { fmt.Println("Task A") },
//		func() { fmt.Println("Task B") },
//		func() { fmt.Println("Task C") },
//		func() { fmt.Println("Task D") },
//	)
//	A, B, C, D := ts[0], ts[1], ts[2], ts[3]
//	A.Precede(B, C) // A runs before B and C
//	B.Precede(D)    // B runs before D
//	C.Precede(D)    // C runs before D
//
//	tf.WaitForAll() // block until finish
//
// There are no explicit thread managements nor lock controls in user code
// (paper Listing 1).
//
// # Static and dynamic tasking, one interface
//
// A task created with EmplaceSubflow receives a *Subflow at runtime and can
// spawn a child task graph using exactly the same building methods
// (Emplace, Precede, ...). A subflow joins its parent by default — the
// parent's successors wait for the whole child graph — or can be detached to
// run independently, in which case it only holds the enclosing topology open
// (paper Section III-D). Subflows nest arbitrarily.
//
// # Dispatch semantics
//
// A Taskflow holds exactly one "present" graph under construction. Dispatch
// moves it into a Topology and schedules it without blocking, returning a
// Future (the shared_future equivalent); SilentDispatch discards the future;
// WaitForAll dispatches the present graph and blocks until every dispatched
// topology finishes (paper Section III-C, Figure 3). Reclaim is WaitForAll
// for programs that build a fresh graph per step: it also takes the finished
// graphs' node storage back for the graphs built next, which ends the life
// of every Task handle into them.
//
// # Executor
//
// Scheduling is delegated to internal/executor, a faithful implementation of
// the paper's Algorithm 1 (work stealing with a per-worker task cache and an
// idlers list). Executors are pluggable and shareable across Taskflow
// instances via NewShared, avoiding thread over-subscription.
//
// A successor that a completion releases runs as the completing task's
// continuation, in the same frame — the task cache without the trip back to
// the worker loop. Plain tasks (func(), or func() error without a retry
// policy) run in one loop under one panic net, and a chain of them is a run
// of fused links: each link's successor, whose only predecessor it is, is
// released with no join counter and no completion bookkeeping beyond its
// trace event, and its body runs next. On a pool that books nothing
// (executor.Executor's Quiet), a topology bound to no flow and no run
// stats, there is no trace event either: a run of fused func() links is a
// dense path, whose bodies the graph keeps in one contiguous table, and it
// runs as a loop over that table — the body, the cancellation check, the
// next index. Whether a link is fused, and the dense paths, are compiled by
// the scan that arms a graph; every builder edit between runs marks them
// stale, so the next scan compiles them again. Accounting, traces, run
// stats, histograms and errors are per task all the same.
//
// # Algorithms and debugging
//
// ParallelFor, ParallelForIndex, Reduce, Transform and TransformReduce
// build common parallel patterns as spliceable task subgraphs (paper
// Section III-F). Dump writes the (possibly nested) task graph in GraphViz
// DOT format (Section III-G).
//
// # Control flow, composition and resources
//
// Beyond the paper's core model, the package implements the features the
// Taskflow project grew next: condition tasks (EmplaceCondition — weak
// out-edges, branches and loops), taskflow composition (Composed),
// cooperative cancellation (Future.Cancel) and semaphores
// (Task.Acquire/Release) for limiting concurrency without blocking
// workers.
package core
