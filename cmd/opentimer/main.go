// Command opentimer is the static timing analysis application of the
// Cpp-Taskflow paper (Section IV-B): a one-shot timing report of a
// synthetic tv80-, vga_lcd-, netcard- or leon3mp-scale design, timed by the
// v2-style taskflow driver. The paper's Figures 9 and 10 are
// `repro fig9 fig10`.
//
// The tool also speaks the standard interchange formats: it can emit the
// synthetic designs as gate-level Verilog plus a Liberty library, and time
// a netlist read back from Verilog.
//
// Usage:
//
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
		design       = flag.String("design", "tv80", "design: tv80, vga_lcd, netcard, leon3mp")
		scale        = flag.Int("scale", 1, "divide the paper's gate count by this factor")
		workers      = flag.Int("workers", experiments.DefaultWorkers(16), "worker count of the timing update")
		report       = flag.Bool("report", false, "print a one-shot timing report for -design or -read-verilog")
		writeVerilog = flag.String("write-verilog", "", "write the design's netlist to this Verilog file")
		writeLiberty = flag.String("write-liberty", "", "write the cell library to this Liberty file")
		readVerilog  = flag.String("read-verilog", "", "time a netlist read from this Verilog file instead of a synthetic design")
		libertyFile  = flag.String("liberty", "", "Liberty file for -read-verilog (default: built-in synthetic library)")
		tracePath    = flag.String("trace", "", "with a report: capture an event trace of the timing update and write Chrome trace-event JSON to this file")
		debugAddr    = flag.String("debug", "", "with a report: serve /debug/taskflow/ on this address during the update")
	)
	flag.Parse()

	d, err := pick(*design)
	if err != nil {
		log.Fatal(err)
	}
	reporting := *report || *readVerilog != ""
	exporting := *writeVerilog != "" || *writeLiberty != ""
	switch {
	case !reporting && !exporting:
		log.Fatal("nothing to do: pass -report, -read-verilog, -write-verilog or -write-liberty")
	case !reporting && (*tracePath != "" || *debugAddr != ""):
		log.Fatal("-trace and -debug apply only to a report (-report or -read-verilog)")
	}

	if exporting {
		exportDesign(d, *scale, *writeVerilog, *writeLiberty)
	}
	switch {
	case *readVerilog != "":
		reportCircuit(importDesign(*readVerilog, *libertyFile), *workers, *tracePath, *debugAddr)
	case *report:
		reportCircuit(d.Build(*scale), *workers, *tracePath, *debugAddr)
	}
}

func pick(name string) (experiments.Design, error) {
	for _, d := range []experiments.Design{experiments.TV80, experiments.VGALCD, experiments.Netcard, experiments.Leon3mp} {
		if d.Name == name {
			return d, nil
		}
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
		fmt.Printf("  %-12s %-5s %-10s arrival %9.3f  slack %9.3f\n", g.Name, g.Kind, cell,
			max(tm.Arrival[0][v], tm.Arrival[1][v]), min(tm.Slack[0][v], tm.Slack[1][v]))
	}
}
