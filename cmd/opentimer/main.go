// Command opentimer drives the VLSI static timing analysis experiments of
// the Cpp-Taskflow paper (Section IV-B): incremental timing iterations on
// tv80- and vga_lcd-scale circuits comparing the OpenTimer-v1-style
// levelized driver against the v2-style taskflow driver (Figure 9), full
// timing scalability and CPU utilization on million-gate-scale designs
// (Figure 10), plus a one-shot timing report.
//
// The tool also speaks the standard interchange formats: it can emit the
// synthetic designs as gate-level Verilog plus a Liberty library, and time
// a netlist read back from Verilog.
//
// Usage:
//
//	opentimer -fig 9 -design tv80 -iters 30 -workers 8
//	opentimer -fig 10 -scale 20 -maxworkers 8
//	opentimer -fig 10 -utilization -scale 20
//	opentimer -report -design tv80
//	opentimer -report -design tv80 -trace sta.json   # report run with a Chrome/Perfetto event trace
//	opentimer -report -design tv80 -debug localhost:6060
//	opentimer -write-verilog tv80.v -write-liberty cells.lib -design tv80
//	opentimer -report -read-verilog tv80.v -liberty cells.lib
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gotaskflow/internal/celllib"
	"gotaskflow/internal/circuit"
	"gotaskflow/internal/cli"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav2"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opentimer: ")
	var (
		fig          = flag.Int("fig", 9, "figure to regenerate: 9 or 10")
		design       = flag.String("design", "tv80", "design: tv80, vga_lcd, netcard, leon3mp")
		scale        = flag.Int("scale", 1, "divide the paper's gate count by this factor")
		iters        = flag.Int("iters", 30, "incremental iterations (figure 9)")
		workers      = flag.Int("workers", experiments.DefaultWorkers(16), "worker count (figure 9)")
		maxWorkers   = flag.Int("maxworkers", experiments.DefaultWorkers(8), "largest worker count (figure 10)")
		reps         = flag.Int("reps", 2, "repetitions per point")
		utilization  = flag.Bool("utilization", false, "emit the CPU-utilization profile instead (figure 10 right)")
		report       = flag.Bool("report", false, "print a one-shot timing report for -design or -read-verilog")
		writeVerilog = flag.String("write-verilog", "", "write the design's netlist to this Verilog file")
		writeLiberty = flag.String("write-liberty", "", "write the cell library to this Liberty file")
		readVerilog  = flag.String("read-verilog", "", "time a netlist read from this Verilog file instead of a synthetic design")
		libertyFile  = flag.String("liberty", "", "Liberty file for -read-verilog (default: built-in synthetic library)")
		tracePath    = flag.String("trace", "", "with -report: capture an event trace of the timing update and write Chrome trace-event JSON to this file")
		debugAddr    = flag.String("debug", "", "with -report: serve /debug/taskflow/ on this address during the update")
	)
	flag.Parse()

	d, err := pick(*design)
	if err != nil {
		log.Fatal(err)
	}

	if *writeVerilog != "" || *writeLiberty != "" {
		exportDesign(d, *scale, *writeVerilog, *writeLiberty)
		if !*report {
			return
		}
	}
	if *readVerilog != "" {
		ckt := importDesign(*readVerilog, *libertyFile)
		reportCircuit(ckt, *workers, *tracePath, *debugAddr)
		return
	}

	switch {
	case *report:
		runReport(d, *scale, *workers, *tracePath, *debugAddr)
	case *fig == 9:
		if err := experiments.Fig9Incremental(os.Stdout, d, *scale, *iters, *workers); err != nil {
			log.Fatal(err)
		}
	case *fig == 10 && *utilization:
		counts := experiments.WorkerSweep(*maxWorkers)
		if err := experiments.Fig10Utilization(os.Stdout, d, *scale, counts, 3); err != nil {
			log.Fatal(err)
		}
	case *fig == 10:
		designs := []experiments.Design{experiments.Netcard, experiments.Leon3mp}
		counts := experiments.WorkerSweep(*maxWorkers)
		if err := experiments.Fig10Scalability(os.Stdout, designs, *scale, counts, *reps); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -fig %d (want 9 or 10)", *fig)
	}
}

func pick(name string) (experiments.Design, error) {
	switch name {
	case "tv80":
		return experiments.TV80, nil
	case "vga_lcd":
		return experiments.VGALCD, nil
	case "netcard":
		return experiments.Netcard, nil
	case "leon3mp":
		return experiments.Leon3mp, nil
	}
	return experiments.Design{}, fmt.Errorf("unknown design %q", name)
}

func exportDesign(d experiments.Design, scale int, verilogPath, libertyPath string) {
	ckt := d.Build(scale)
	if verilogPath != "" {
		f, err := os.Create(verilogPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ckt.WriteVerilog(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s (%d gates) to %s\n", ckt.Name, ckt.NumGates(), verilogPath)
	}
	if libertyPath != "" {
		f, err := os.Create(libertyPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ckt.Lib.WriteLiberty(f, "gotaskflow45"); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote cell library to %s\n", libertyPath)
	}
}

func importDesign(verilogPath, libertyPath string) *circuit.Circuit {
	lib := celllib.NewNanGate45Like()
	if libertyPath != "" {
		f, err := os.Open(libertyPath)
		if err != nil {
			log.Fatal(err)
		}
		lib, err = celllib.ParseLiberty(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	f, err := os.Open(verilogPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ckt, err := circuit.ParseVerilog(f, lib)
	if err != nil {
		log.Fatal(err)
	}
	return ckt
}

func runReport(d experiments.Design, scale, workers int, tracePath, debugAddr string) {
	reportCircuit(d.Build(scale), workers, tracePath, debugAddr)
}

// reportCircuit performs one full timing update and prints the report.
// The update's task graph — one task per level slice, named after the first
// gate it relaxes — runs with scheduler metrics and event tracing armed, so
// -trace captures a Chrome/Perfetto timeline of the forward/backward
// propagation and -debug exposes the live /debug/taskflow/ endpoint while it
// executes.
func reportCircuit(ckt *circuit.Circuit, workers int, tracePath, debugAddr string) {
	tm := sta.New(ckt, experiments.ClockPeriod)
	e := executor.New(workers, executor.WithMetrics(), executor.WithTracing(0))
	a := stav2.NewShared(tm, e)
	defer a.Close()
	tf := a.Taskflow(tm.FullUpdate())

	err := cli.Observed{
		Executor: e, Taskflow: tf, Name: "timing_update", TracePath: tracePath, DebugAddr: debugAddr,
	}.Run(func() error {
		if err := tf.WaitForAll(); err != nil {
			return fmt.Errorf("timing update failed: %w", err)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	ws, at := tm.WorstSlack()
	fmt.Printf("design %s: %d gates, %d timing arcs\n", ckt.Name, ckt.NumGates(), ckt.NumEdges())
	fmt.Printf("worst slack %.3f ps at %s\n", ws, ckt.Gates[at].Name)
	path := tm.CriticalPath()
	fmt.Printf("critical path (%d nodes):\n", len(path))
	for _, v := range path {
		g := ckt.Gates[v]
		cell := "-"
		if g.Cell != nil {
			cell = g.Cell.Name
		}
		// Report the later (worse) transition of each quantity.
		arr := tm.Arrival[0][v]
		if tm.Arrival[1][v] > arr {
			arr = tm.Arrival[1][v]
		}
		slack := tm.Slack[0][v]
		if tm.Slack[1][v] < slack {
			slack = tm.Slack[1][v]
		}
		fmt.Printf("  %-12s %-5s %-10s arrival %9.3f  slack %9.3f\n",
			g.Name, g.Kind, cell, arr, slack)
	}
}
