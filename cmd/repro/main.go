// Command repro regenerates the tables and figures of the Cpp-Taskflow
// paper's evaluation at a configurable scale, or runs one instrumented
// pass of a paper workload. The default scale is sized for a small
// machine; -scale 1 approaches the paper's problem sizes (the paper ran on
// 64 Opteron cores with 256 GB RAM).
//
// Usage:
//
//	repro                          # laptop-scale pass over every section
//	repro -quick                   # smoke-sized pass (seconds)
//	repro -scale 1                 # paper-sized problem instances
//	repro listings table1 table2 table3   # the software-cost tables alone
//	repro -scale 10 fig9           # Figure 9 alone
//	repro -observe wavefront -prom -dot wf.dot -trace wf.json
//	repro -observe traversal -debug localhost:6060
//	repro -observe dnn -trace train.json
//
// Sections are listings, table1, fig7, table2, fig9, fig10, table3 and
// fig12; they always print in the paper's order. -observe runs the largest
// wavefront or traversal point of the scale, or one training of the 3-layer
// net, with scheduler metrics and event tracing armed: the run summary goes
// to stderr (wavefront, traversal) or the loss and accuracy to stdout (dnn),
// and -trace, -debug, -prom and -dot attach to that run alone.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"gotaskflow/internal/cli"
	"gotaskflow/internal/core"
	"gotaskflow/internal/dnn"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/graphgen"
	"gotaskflow/internal/mnist"
	"gotaskflow/internal/traversal"
	"gotaskflow/internal/wavefront"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "smoke-sized problems")
	scale := fs.Int("scale", 20, "divisor applied to the paper's problem sizes")
	target := fs.String("observe", "", "run one instrumented pass instead of sections: wavefront, traversal or dnn")
	o := cli.Observed{Stdout: stdout, Stderr: stderr}
	fs.StringVar(&o.TracePath, "trace", "", "with -observe: write the run's Chrome trace-event JSON to this file")
	fs.StringVar(&o.DebugAddr, "debug", "", "with -observe: serve /debug/taskflow/ on this address during the run")
	fs.BoolVar(&o.Prom, "prom", false, "with -observe wavefront|traversal: write the Prometheus text to stdout")
	fs.StringVar(&o.DotPath, "dot", "", "with -observe wavefront|traversal: write the annotated task graph (DOT) to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: repro [-quick] [-scale N] [section ...]\n"+
			"       repro [-quick] [-scale N] -observe wavefront|traversal|dnn [-trace f] [-debug addr] [-prom] [-dot f]\n"+
			"sections: %s\n", strings.Join(sectionKeys(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	keys := fs.Args()
	if err := check(*target, keys, set); err != nil {
		return err
	}

	p := params(*scale, *quick)
	if *target != "" {
		return observe(*target, p, o)
	}
	var err error
	if p.root, err = experiments.SrcRoot(); err != nil {
		return err
	}
	what := cmp.Or(strings.Join(keys, " "), "full experiment sweep")
	fmt.Fprintf(stdout, "Cpp-Taskflow reproduction — %s (scale 1/%d, quick=%v)\n", what, *scale, *quick)
	start := time.Now()
	for _, s := range sections {
		if len(keys) > 0 && !slices.Contains(keys, s.key) {
			continue
		}
		fmt.Fprintf(stdout, "\n===== %s =====\n", s.title)
		t0 := time.Now()
		if err := s.run(stdout, p); err != nil {
			return fmt.Errorf("%s: %w", s.title, err)
		}
		fmt.Fprintf(stdout, "# section completed in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "\nall experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// check rejects, before anything runs, a section that does not exist and a
// flag that cannot apply to what was asked for.
func check(target string, keys []string, set map[string]bool) error {
	if target == "" {
		for _, f := range []string{"trace", "debug", "prom", "dot"} {
			if set[f] {
				return fmt.Errorf("-%s applies only with -observe", f)
			}
		}
		for _, k := range keys {
			if !slices.Contains(sectionKeys(), k) {
				return fmt.Errorf("unknown section %q (want %s)", k, strings.Join(sectionKeys(), " "))
			}
		}
		return nil
	}
	switch {
	case len(keys) > 0:
		return fmt.Errorf("-observe runs no sections, got %s", strings.Join(keys, " "))
	case !slices.Contains([]string{"wavefront", "traversal", "dnn"}, target):
		return fmt.Errorf("unknown -observe %q (want wavefront, traversal or dnn)", target)
	case target == "dnn" && (set["prom"] || set["dot"]):
		return errors.New("-prom and -dot do not apply to -observe dnn: it prints no run summary")
	}
	return nil
}

// A section is one headed block of the output, in the paper's order.
// Sections sharing a key are asked for together: fig7 is Figure 7's top
// and bottom.
type section struct {
	key, title string
	run        func(w io.Writer, p runParams) error
}

var sections = []section{
	{"listings", "Listings 3-5 / 7-8 (programmability)", func(w io.Writer, p runParams) error { return experiments.ListingsTable(w) }},
	{"table1", "Table I (micro-benchmark software costs)", func(w io.Writer, p runParams) error { return experiments.Table1(w, p.root) }},
	{"fig7", "Figure 7 top (runtime vs problem size)", func(w io.Writer, p runParams) error {
		return experiments.Fig7SizeSweep(w, p.workers, p.wavefrontSizes, p.traversalSizes, p.reps)
	}},
	{"fig7", "Figure 7 bottom (runtime vs workers)", func(w io.Writer, p runParams) error {
		wf, tv := p.wavefrontSizes[len(p.wavefrontSizes)-1], p.traversalSizes[len(p.traversalSizes)-1]
		return experiments.Fig7CPUSweep(w, experiments.WorkerSweep(p.maxWorkers), wf, tv, p.reps)
	}},
	{"table2", "Table II (OpenTimer software costs + COCOMO)", func(w io.Writer, p runParams) error { return experiments.Table2(w, p.root) }},
	{"fig9", "Figure 9 (incremental timing, tv80)", func(w io.Writer, p runParams) error {
		return experiments.Fig9Incremental(w, experiments.TV80, p.staScaleSmall, p.fig9IterTV80, p.workers)
	}},
	{"fig9", "Figure 9 (incremental timing, vga_lcd)", func(w io.Writer, p runParams) error {
		return experiments.Fig9Incremental(w, experiments.VGALCD, p.staScaleLarge, p.fig9IterVGA, p.workers)
	}},
	{"fig10", "Figure 10 left (full-timing scalability)", func(w io.Writer, p runParams) error {
		designs := []experiments.Design{experiments.Netcard, experiments.Leon3mp}
		return experiments.Fig10Scalability(w, designs, p.staScaleHuge, experiments.WorkerSweep(p.maxWorkers), p.reps)
	}},
	{"fig10", "Figure 10 right (CPU utilization)", func(w io.Writer, p runParams) error {
		return experiments.Fig10Utilization(w, experiments.Leon3mp, p.staScaleHuge, experiments.WorkerSweep(p.maxWorkers), p.utilUpdates)
	}},
	{"table3", "Table III (machine-learning software costs)", func(w io.Writer, p runParams) error { return experiments.Table3(w, p.root) }},
	{"fig12", "Figure 12 top (DNN runtime vs epochs)", func(w io.Writer, p runParams) error {
		if err := experiments.Fig12Epochs(w, dnn.Arch3, "3-layer DNN", p.epochSweep, p.images, p.workers); err != nil {
			return err
		}
		return experiments.Fig12Epochs(w, dnn.Arch5, "5-layer DNN", p.epochSweep, p.images, p.workers)
	}},
	{"fig12", "Figure 12 bottom (DNN runtime vs workers)", func(w io.Writer, p runParams) error {
		counts := experiments.WorkerSweep(p.maxWorkers)
		if err := experiments.Fig12CPU(w, dnn.Arch3, "3-layer DNN", counts, p.cpuEpochs, p.images); err != nil {
			return err
		}
		return experiments.Fig12CPU(w, dnn.Arch5, "5-layer DNN", counts, p.cpuEpochs, p.images)
	}},
}

// sectionKeys returns the section names a command line may give, in order.
func sectionKeys() []string {
	var keys []string
	for _, s := range sections {
		if !slices.Contains(keys, s.key) {
			keys = append(keys, s.key)
		}
	}
	return keys
}

// observe runs one instrumented pass through cli.Observed on the run's
// workers: the largest wavefront or traversal point, with its run summary,
// or one training of the 3-layer net (cpuEpochs over images), with its loss
// and accuracy.
func observe(target string, p runParams, o cli.Observed) error {
	e := executor.New(p.workers, executor.WithMetrics(), executor.WithTracing(0))
	defer e.Shutdown()
	o.Executor = e
	switch target {
	case "wavefront":
		n := p.wavefrontSizes[len(p.wavefrontSizes)-1]
		o.Name = fmt.Sprintf("wavefront_%dx%d", n, n)
		o.Taskflow = core.NewShared(e).SetName(o.Name).CollectRunStats(true)
		g := wavefront.Build(o.Taskflow, n, wavefront.Spin)
		o.Headline = func() string {
			return fmt.Sprintf("wavefront %dx%d on %d workers: checksum %#x", n, n, p.workers, g[n][n])
		}
		return o.Run(o.Taskflow.Run)
	case "traversal":
		d := graphgen.Random(p.traversalSizes[len(p.traversalSizes)-1], graphgen.Config{Seed: 1})
		o.Name = fmt.Sprintf("traversal_%d", d.N)
		o.Taskflow = core.NewShared(e).SetName(o.Name).CollectRunStats(true)
		val := traversal.Build(o.Taskflow, d, traversal.Spin)
		o.Headline = func() string {
			return fmt.Sprintf("traversal of %d nodes (%d edges, seed 1) on %d workers: checksum %#x",
				d.N, d.NumEdges(), p.workers, traversal.Checksum(val))
		}
		return o.Run(o.Taskflow.Run)
	}

	cfg, data := experiments.MLConfig(dnn.Arch3, p.cpuEpochs, p.images)
	cfg.LR = 0.1 // a practical rate for the synthetic set
	o.Name = "dnntrain"
	o.Taskflow = core.NewShared(e).SetName(o.Name)
	var net *dnn.MLP
	var losses []float64
	err := o.Run(func() (err error) {
		net, losses, err = dnn.TrainTaskflowShared(cfg, data, p.workers, o.Taskflow)
		return err
	})
	if err != nil {
		return err
	}
	test := mnist.Synthetic(p.images/5, cfg.Seed+1)
	fmt.Fprintf(o.Stdout, "3-layer DNN: %d epochs, %d images, %d tasks/epoch\n",
		cfg.Epochs, p.images, cfg.NumTasksPerEpoch(p.images))
	fmt.Fprintf(o.Stdout, "loss: first %.4f, last %.4f\n", losses[0], losses[len(losses)-1])
	fmt.Fprintf(o.Stdout, "train accuracy %.3f, test accuracy %.3f\n",
		dnn.Accuracy(net, data), dnn.Accuracy(net, test))
	return nil
}

type runParams struct {
	root                           string // module root, for the software-cost tables
	workers, maxWorkers, reps      int
	wavefrontSizes, traversalSizes []int
	staScaleSmall, staScaleLarge   int
	staScaleHuge                   int
	fig9IterTV80, fig9IterVGA      int
	utilUpdates                    int
	epochSweep                     []int
	cpuEpochs, images              int
}

func params(scale int, quick bool) runParams {
	if quick {
		return runParams{
			workers:        experiments.DefaultWorkers(8),
			maxWorkers:     experiments.DefaultWorkers(4),
			reps:           1,
			wavefrontSizes: []int{8, 16},
			traversalSizes: []int{500, 1000},
			staScaleSmall:  10, staScaleLarge: 200, staScaleHuge: 2000,
			fig9IterTV80: 5, fig9IterVGA: 5,
			utilUpdates: 2,
			epochSweep:  []int{1, 2},
			cpuEpochs:   1, images: 500,
		}
	}
	scale = max(scale, 1)
	// The paper's largest instances: wavefront 512x512 blocks (262,144
	// tasks), traversal 711,002 nodes, tv80 5.3K / vga_lcd 139.5K /
	// netcard 1.4M / leon3mp 1.2M gates, 60K-image MNIST, 100-epoch
	// sweeps. Task counts below divide by `scale` (wavefront edges divide
	// by sqrt(scale) since tasks grow quadratically).
	var wf []int
	for _, m := range []int{128, 256, 384, 512} {
		wf = append(wf, max(m/int(math.Ceil(math.Sqrt(float64(scale)))), 4))
	}
	var tv []int
	for _, n := range []int{89000, 178000, 356000, 711002} {
		tv = append(tv, max(n/scale, 100))
	}
	ep := min(scale, 10)
	return runParams{
		workers:        experiments.DefaultWorkers(8),
		maxWorkers:     experiments.DefaultWorkers(8),
		reps:           2,
		wavefrontSizes: wf,
		traversalSizes: tv,
		staScaleSmall:  max(scale/10, 1),
		staScaleLarge:  scale,
		staScaleHuge:   scale * 10,
		fig9IterTV80:   30,
		fig9IterVGA:    100,
		utilUpdates:    3,
		epochSweep:     []int{max(20/ep, 1), max(40/ep, 2), max(100/ep, 3)},
		cpuEpochs:      max(40/min(scale, 20), 1),
		images:         max(60000/scale, 500),
	}
}
