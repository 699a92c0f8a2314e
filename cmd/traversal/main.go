// Command traversal runs the graph-traversal micro-benchmark of the
// Cpp-Taskflow paper (Figure 7): a random degree-bounded DAG cast into a
// task dependency graph and traversed by the taskflow, TBB-FlowGraph and
// OpenMP models.
//
// Usage:
//
//	traversal -sweep size -workers 8 -sizes 50000,100000,200000
//	traversal -sweep cpu -size 200000 -maxworkers 8
//	traversal -metrics -size 200000 -workers 8   # instrumented run: scheduler counters + run profile
//	traversal -metrics -prom -size 200000        # same, plus Prometheus text on stdout
//	traversal -metrics -dot g.dot -size 50       # same, plus annotated DOT dump
//	traversal -metrics -trace t.json -size 50000 # same, plus a Chrome/Perfetto event trace
//	traversal -metrics -debug localhost:6060     # same, serving /debug/taskflow/ during the run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gotaskflow/internal/cli"
	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/traversal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traversal: ")
	var (
		sweep      = flag.String("sweep", "size", "sweep axis: size or cpu")
		workers    = flag.Int("workers", experiments.DefaultWorkers(8), "worker count for the size sweep")
		sizes      = flag.String("sizes", "25000,50000,100000,200000", "comma-separated node counts")
		size       = flag.Int("size", 200000, "node count for the cpu sweep")
		maxWorkers = flag.Int("maxworkers", experiments.DefaultWorkers(8), "largest worker count for the cpu sweep")
		reps       = flag.Int("reps", 3, "repetitions per point (min taken)")
		seed       = flag.Int64("seed", 1, "random-DAG seed for the -metrics run")
		withStats  = flag.Bool("metrics", false, "run one instrumented pass at -size/-workers and report scheduler metrics instead of sweeping")
		prom       = flag.Bool("prom", false, "with -metrics: also write the Prometheus text exposition to stdout")
		dotPath    = flag.String("dot", "", "with -metrics: write the annotated task graph (DOT) to this file")
		tracePath  = flag.String("trace", "", "with -metrics: capture an event trace of the run and write Chrome trace-event JSON to this file")
		debugAddr  = flag.String("debug", "", "with -metrics: serve /debug/taskflow/ on this address while the run executes")
	)
	flag.Parse()

	if *withStats {
		runInstrumented(*size, *workers, *seed, *prom, *dotPath, *tracePath, *debugAddr)
		return
	}

	switch *sweep {
	case "size":
		ns, err := cli.ParseInts(*sizes)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.Fig7SizeSweep(os.Stdout, *workers, nil, ns, *reps); err != nil {
			log.Fatal(err)
		}
	case "cpu":
		counts := experiments.WorkerSweep(*maxWorkers)
		if err := experiments.Fig7CPUSweep(os.Stdout, counts, 0, *size, *reps); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -sweep %q (want size or cpu)", *sweep)
	}
}

// runInstrumented executes one fully observable traversal of a seeded
// random DAG: the executor counts scheduler events and arms event
// tracing, the taskflow collects timed run statistics, and the run
// profile plus scheduler counters land on stderr. On request it also
// writes Prometheus text, an annotated DOT dump, a Chrome trace capture
// of the run, and serves the live /debug/taskflow/ endpoint for its
// duration.
func runInstrumented(size, workers int, seed int64, prom bool, dotPath, tracePath, debugAddr string) {
	d := graphgen.Random(size, graphgen.Config{Seed: seed})
	e := executor.New(workers, executor.WithMetrics(), executor.WithTracing(0))
	defer e.Shutdown()
	name := fmt.Sprintf("traversal_%d", d.N)
	tf := core.NewShared(e).SetName(name).CollectRunStats(true)
	val := traversal.Build(tf, d, traversal.Spin)
	err := cli.Observed{
		Executor: e, Taskflow: tf, Name: name,
		TracePath: tracePath, DebugAddr: debugAddr, Prom: prom, DotPath: dotPath,
		Headline: func() string {
			return fmt.Sprintf("traversal of %d nodes (%d edges, seed %d) on %d workers: checksum %#x",
				size, d.NumEdges(), seed, workers, traversal.Checksum(val))
		},
	}.Run(tf.Run)
	if err != nil {
		log.Fatal(err)
	}
}
