// Command wavefront runs the wavefront micro-benchmark of the
// Cpp-Taskflow paper (Figure 7): a 2D matrix partitioned into square
// blocks whose tasks propagate dependencies from the top-left to the
// bottom-right corner, executed by the taskflow, TBB-FlowGraph and
// OpenMP models.
//
// Usage:
//
//	wavefront -sweep size -workers 8 -sizes 64,128,256,512
//	wavefront -sweep cpu -size 512 -maxworkers 8
//	wavefront -metrics -size 256 -workers 8        # instrumented run: scheduler counters + run profile
//	wavefront -metrics -prom -size 256             # same, plus Prometheus text on stdout
//	wavefront -metrics -dot wf.dot -size 8         # same, plus annotated DOT dump
//	wavefront -metrics -trace wf.json -size 256    # same, plus a Chrome/Perfetto event trace
//	wavefront -metrics -debug localhost:6060       # same, serving /debug/taskflow/ during the run
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
	"gotaskflow/internal/wavefront"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavefront: ")
	var (
		sweep      = flag.String("sweep", "size", "sweep axis: size or cpu")
		workers    = flag.Int("workers", experiments.DefaultWorkers(8), "worker count for the size sweep")
		sizes      = flag.String("sizes", "32,64,128,256", "comma-separated block counts per side")
		size       = flag.Int("size", 256, "blocks per side for the cpu sweep")
		maxWorkers = flag.Int("maxworkers", experiments.DefaultWorkers(8), "largest worker count for the cpu sweep")
		reps       = flag.Int("reps", 3, "repetitions per point (min taken)")
		withStats  = flag.Bool("metrics", false, "run one instrumented pass at -size/-workers and report scheduler metrics instead of sweeping")
		prom       = flag.Bool("prom", false, "with -metrics: also write the Prometheus text exposition to stdout")
		dotPath    = flag.String("dot", "", "with -metrics: write the annotated task graph (DOT) to this file")
		tracePath  = flag.String("trace", "", "with -metrics: capture an event trace of the run and write Chrome trace-event JSON to this file")
		debugAddr  = flag.String("debug", "", "with -metrics: serve /debug/taskflow/ on this address while the run executes")
	)
	flag.Parse()

	if *withStats {
		runInstrumented(*size, *workers, *prom, *dotPath, *tracePath, *debugAddr)
		return
	}

	switch *sweep {
	case "size":
		ms, err := cli.ParseInts(*sizes)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.Fig7SizeSweep(os.Stdout, *workers, ms, nil, *reps); err != nil {
			log.Fatal(err)
		}
	case "cpu":
		counts := experiments.WorkerSweep(*maxWorkers)
		if err := experiments.Fig7CPUSweep(os.Stdout, counts, *size, 0, *reps); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -sweep %q (want size or cpu)", *sweep)
	}
}

// runInstrumented executes one fully observable wavefront: the executor
// counts scheduler events and arms event tracing, the taskflow collects
// timed run statistics, and the run profile plus scheduler counters land
// on stderr. On request it also writes Prometheus text, an annotated DOT
// dump, a Chrome trace capture of the run, and serves the live
// /debug/taskflow/ endpoint for its duration.
func runInstrumented(size, workers int, prom bool, dotPath, tracePath, debugAddr string) {
	e := executor.New(workers, executor.WithMetrics(), executor.WithTracing(0))
	defer e.Shutdown()
	name := fmt.Sprintf("wavefront_%dx%d", size, size)
	tf := core.NewShared(e).SetName(name).CollectRunStats(true)
	g := wavefront.Build(tf, size, wavefront.Spin)
	err := cli.Observed{
		Executor: e, Taskflow: tf, Name: name,
		TracePath: tracePath, DebugAddr: debugAddr, Prom: prom, DotPath: dotPath,
		Headline: func() string {
			return fmt.Sprintf("wavefront %dx%d on %d workers: checksum %#x", size, size, workers, g[size][size])
		},
	}.Run(tf.Run)
	if err != nil {
		log.Fatal(err)
	}
}
