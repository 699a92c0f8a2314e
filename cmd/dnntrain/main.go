// Command dnntrain drives the machine-learning experiment of the
// Cpp-Taskflow paper (Section IV-C, Figure 12): training the 3-layer and
// 5-layer MNIST classifiers with the Figure-11 task decomposition under
// the taskflow, TBB-FlowGraph and OpenMP backends.
//
// Usage:
//
//	dnntrain -sweep epochs -arch 3 -epochs 10,20,40 -images 6000
//	dnntrain -sweep cpu -arch 5 -epochcount 20 -maxworkers 8
//	dnntrain -accuracy -arch 3 -epochcount 20
//	dnntrain -accuracy -trace train.json         # accuracy run with a Chrome/Perfetto event trace
//	dnntrain -accuracy -debug localhost:6060     # accuracy run serving /debug/taskflow/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gotaskflow/internal/cli"
	"gotaskflow/internal/core"
	"gotaskflow/internal/dnn"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/mnist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnntrain: ")
	var (
		sweep      = flag.String("sweep", "epochs", "sweep axis: epochs or cpu")
		arch       = flag.Int("arch", 3, "architecture: 3 (784x32x32x10) or 5 (784x64x32x16x8x10)")
		epochs     = flag.String("epochs", "5,10,20", "epoch counts for the epochs sweep")
		epochCount = flag.Int("epochcount", 20, "epochs for the cpu sweep / accuracy run")
		images     = flag.Int("images", 6000, "dataset size (the paper uses 60000)")
		workers    = flag.Int("workers", experiments.DefaultWorkers(16), "worker count for the epochs sweep")
		maxWorkers = flag.Int("maxworkers", experiments.DefaultWorkers(8), "largest worker count for the cpu sweep")
		accuracy   = flag.Bool("accuracy", false, "train once and report train/test accuracy")
		tracePath  = flag.String("trace", "", "with -accuracy: capture an event trace of the training run and write Chrome trace-event JSON to this file")
		debugAddr  = flag.String("debug", "", "with -accuracy: serve /debug/taskflow/ on this address while training")
	)
	flag.Parse()

	sizes, label := dnn.Arch3, "3-layer DNN"
	if *arch == 5 {
		sizes, label = dnn.Arch5, "5-layer DNN"
	} else if *arch != 3 {
		log.Fatalf("unknown -arch %d (want 3 or 5)", *arch)
	}

	switch {
	case *accuracy:
		cfg, data := experiments.MLConfig(sizes, *epochCount, *images)
		cfg.LR = 0.1 // a practical rate for the synthetic set
		net, losses, err := trainObserved(cfg, data, *workers, *tracePath, *debugAddr)
		if err != nil {
			log.Fatalf("training failed: %v", err)
		}
		test := mnist.Synthetic(*images/5, cfg.Seed+1)
		fmt.Printf("%s: %d epochs, %d images, %d tasks/epoch\n",
			label, cfg.Epochs, *images, cfg.NumTasksPerEpoch(*images))
		fmt.Printf("loss: first %.4f, last %.4f\n", losses[0], losses[len(losses)-1])
		fmt.Printf("train accuracy %.3f, test accuracy %.3f\n",
			dnn.Accuracy(net, data), dnn.Accuracy(net, test))
	case *sweep == "epochs":
		es, err := cli.ParseInts(*epochs)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.Fig12Epochs(os.Stdout, sizes, label, es, *images, *workers); err != nil {
			log.Fatal(err)
		}
	case *sweep == "cpu":
		counts := experiments.WorkerSweep(*maxWorkers)
		if err := experiments.Fig12CPU(os.Stdout, sizes, label, counts, *epochCount, *images); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -sweep %q (want epochs or cpu)", *sweep)
	}
}

// trainObserved runs one Figure-11 training taskflow with the requested
// observability attached: an event-trace capture written as Chrome
// trace-event JSON (-trace) and/or the live /debug/taskflow/ endpoint
// (-debug) served for the duration of training.
func trainObserved(cfg dnn.Config, data *mnist.Dataset, workers int, tracePath, debugAddr string) (net *dnn.MLP, losses []float64, err error) {
	e := executor.New(workers, executor.WithMetrics(), executor.WithTracing(0))
	defer e.Shutdown()
	tf := core.NewShared(e).SetName("dnntrain")
	err = cli.Observed{
		Executor: e, Taskflow: tf, Name: "dnntrain", TracePath: tracePath, DebugAddr: debugAddr,
	}.Run(func() (err error) {
		net, losses, err = dnn.TrainTaskflowShared(cfg, data, workers, tf)
		return err
	})
	return net, losses, err
}
