// Package circuit provides the gate-level netlist model and the synthetic
// circuit generator behind the OpenTimer experiments of the Cpp-Taskflow
// paper (Section IV-B). The paper evaluates on industrial designs (tv80,
// vga_lcd, netcard, leon3mp); those netlists are not redistributable, so
// this package generates seeded random circuits with the same structural
// properties that matter for the experiments: bounded fan-in, long
// irregular fan-out cones, a flip-flop population that splits the timing
// graph into register-bounded stages, and sizes scalable from thousands to
// millions of gates.
//
// The timing graph view is standard: primary inputs and flip-flop Q pins
// are startpoints, primary outputs and flip-flop D pins are endpoints, and
// every edge goes from a lower to a higher node index (a valid topological
// order by construction).
package circuit

import (
	"fmt"
	"math/rand"

	"gotaskflow/internal/celllib"
)

// Kind classifies a node of the timing graph.
type Kind uint8

const (
	// PI is a primary input: a startpoint with arrival time zero.
	PI Kind = iota
	// FFQ is a flip-flop output pin: a startpoint clocked at time zero.
	FFQ
	// Comb is a combinational gate mapped to a library cell.
	Comb
	// FFD is a flip-flop data pin: an endpoint checked against the clock
	// period minus setup.
	FFD
	// PO is a primary output: an endpoint checked against the clock
	// period.
	PO
)

func (k Kind) String() string {
	switch k {
	case PI:
		return "PI"
	case FFQ:
		return "FFQ"
	case Comb:
		return "Comb"
	case FFD:
		return "FFD"
	case PO:
		return "PO"
	}
	return "?"
}

// Gate is one node of the timing graph. A gate drives one net whose sinks
// are the Fanout gates; Fanin[k] feeds the k-th input pin.
type Gate struct {
	ID      int
	Name    string
	Kind    Kind
	Cell    *celllib.Cell // nil for PI/PO/FFD (no driving arc needed)
	Fanin   []int32
	Fanout  []int32
	WireCap float64 // extra capacitance on the driven net, fF
}

// IsStart reports whether the gate is a timing startpoint.
func (g *Gate) IsStart() bool { return g.Kind == PI || g.Kind == FFQ }

// IsEnd reports whether the gate is a timing endpoint.
func (g *Gate) IsEnd() bool { return g.Kind == PO || g.Kind == FFD }

// Circuit is a gate-level netlist over a cell library.
type Circuit struct {
	Name  string
	Lib   *celllib.Library
	Gates []*Gate
}

// NumGates returns the total node count of the timing graph.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumNodes implements levelize.Graph.
func (c *Circuit) NumNodes() int { return len(c.Gates) }

// Successors implements levelize.Graph.
func (c *Circuit) Successors(i int, visit func(int)) {
	for _, j := range c.Gates[i].Fanout {
		visit(int(j))
	}
}

// NumEdges returns the number of timing arcs (net connections).
func (c *Circuit) NumEdges() int {
	n := 0
	for _, g := range c.Gates {
		n += len(g.Fanout)
	}
	return n
}

// validate checks the structural invariants the timing engine relies on:
// every edge goes from a lower to a higher index (index order is
// topological), fanin/fanout lists are mutually consistent, and
// combinational fanin counts match the mapped cell.
func (c *Circuit) validate() error {
	for u, g := range c.Gates {
		if g.ID != u {
			return fmt.Errorf("circuit %s: gate %d has ID %d", c.Name, u, g.ID)
		}
		for _, vi := range g.Fanout {
			v := int(vi)
			if v <= u {
				return fmt.Errorf("circuit %s: backward edge %s -> %s", c.Name, g.Name, c.Gates[v].Name)
			}
			found := false
			for _, ui := range c.Gates[v].Fanin {
				if int(ui) == u {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("circuit %s: edge %d->%d missing from fanin", c.Name, u, v)
			}
		}
		if g.Kind == Comb && g.Cell != nil && len(g.Fanin) != g.Cell.NumInputs {
			return fmt.Errorf("circuit %s: gate %s has %d fanins for cell %s", c.Name, g.Name, len(g.Fanin), g.Cell.Name)
		}
	}
	return nil
}

// connect wires u's output to an input pin of v.
func (c *Circuit) connect(u, v int) {
	c.Gates[u].Fanout = append(c.Gates[u].Fanout, int32(v))
	c.Gates[v].Fanin = append(c.Gates[v].Fanin, int32(u))
}

// Config controls synthetic circuit generation.
type Config struct {
	// Gates is the number of combinational gates (the "gate count" quoted
	// for the paper's designs).
	Gates int
	// PIs, POs: primary input/output counts; non-positive pick
	// max(4, Gates/64) and max(4, Gates/64).
	PIs, POs int
	// FFRatio is the fraction of combinational gate count added as
	// flip-flops (each contributing an FFQ startpoint and an FFD
	// endpoint); non-positive defaults to 0.08.
	FFRatio float64
	// Window bounds how far back a gate picks its fanins, shaping logic
	// depth; non-positive defaults to 256.
	Window int
	// Seed drives deterministic generation.
	Seed int64
}

func (cfg *Config) defaults() {
	if cfg.PIs <= 0 {
		cfg.PIs = max(4, cfg.Gates/64)
	}
	if cfg.POs <= 0 {
		cfg.POs = max(4, cfg.Gates/64)
	}
	if cfg.FFRatio <= 0 {
		cfg.FFRatio = 0.08
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds a random circuit under cfg. The same cfg always yields
// the same circuit. Node order is: PIs and FFQs first, combinational gates
// in topological order, then FFDs and POs.
func Generate(name string, cfg Config) *Circuit {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	lib := celllib.NewNanGate45Like()
	c := &Circuit{Name: name, Lib: lib}

	one := lib.Combinational(1)
	two := lib.Combinational(2)
	dff := lib.DFF()

	numFF := int(float64(cfg.Gates) * cfg.FFRatio)
	// Startpoints.
	for i := 0; i < cfg.PIs; i++ {
		c.Gates = append(c.Gates, &Gate{
			ID: len(c.Gates), Name: fmt.Sprintf("inp%d", i), Kind: PI,
			WireCap: 0.5 + rng.Float64(),
		})
	}
	for i := 0; i < numFF; i++ {
		c.Gates = append(c.Gates, &Gate{
			ID: len(c.Gates), Name: fmt.Sprintf("f%d:Q", i), Kind: FFQ,
			Cell:    dff[rng.Intn(len(dff))],
			WireCap: 0.5 + rng.Float64(),
		})
	}
	// Combinational core: fanins drawn from a sliding window of earlier
	// nodes, so edges go forward and depth stays bounded but irregular.
	for i := 0; i < cfg.Gates; i++ {
		var cell *celllib.Cell
		nin := 1
		if rng.Float64() < 0.72 {
			nin = 2
		}
		if nin == 1 {
			cell = one[rng.Intn(len(one))]
		} else {
			cell = two[rng.Intn(len(two))]
		}
		g := &Gate{
			ID: len(c.Gates), Name: fmt.Sprintf("u%d", i), Kind: Comb,
			Cell:    cell,
			WireCap: 0.5 + 2*rng.Float64(),
		}
		c.Gates = append(c.Gates, g)
		lo := g.ID - cfg.Window
		if lo < 0 {
			lo = 0
		}
		for k := 0; k < nin; k++ {
			c.connect(lo+rng.Intn(g.ID-lo), g.ID)
		}
	}
	// Endpoints: FFD pins and POs hang off random drivers.
	firstDriver := 0
	lastDriver := len(c.Gates)
	for i := 0; i < numFF; i++ {
		g := &Gate{
			ID: len(c.Gates), Name: fmt.Sprintf("f%d:D", i), Kind: FFD,
			Cell: c.Gates[cfg.PIs+i].Cell,
		}
		c.Gates = append(c.Gates, g)
		c.connect(firstDriver+rng.Intn(lastDriver-firstDriver), g.ID)
	}
	for i := 0; i < cfg.POs; i++ {
		g := &Gate{
			ID: len(c.Gates), Name: fmt.Sprintf("out%d", i), Kind: PO,
		}
		c.Gates = append(c.Gates, g)
		c.connect(firstDriver+rng.Intn(lastDriver-firstDriver), g.ID)
	}
	return c
}

// Figure8 builds the small sample circuit of the paper's Figure 8 (one
// timing update task graph): two primary inputs, four gates u1..u4, a
// flip-flop f1, and a primary output.
func Figure8() *Circuit {
	lib := celllib.NewNanGate45Like()
	c := &Circuit{Name: "figure8", Lib: lib}
	add := func(name string, kind Kind, cell *celllib.Cell) int {
		g := &Gate{ID: len(c.Gates), Name: name, Kind: kind, Cell: cell, WireCap: 1}
		c.Gates = append(c.Gates, g)
		return g.ID
	}
	// Node indices must be a topological order (u4 comes after u2/u3).
	inp1 := add("inp1", PI, nil)
	inp2 := add("inp2", PI, nil)
	f1q := add("f1:Q", FFQ, lib.Cell("DFF_X1"))
	u1 := add("u1", Comb, lib.Cell("AND2_X1"))
	u2 := add("u2", Comb, lib.Cell("INV_X1"))
	u3 := add("u3", Comb, lib.Cell("INV_X1"))
	u4 := add("u4", Comb, lib.Cell("NOR2_X1"))
	f1d := add("f1:D", FFD, lib.Cell("DFF_X1"))
	out := add("out", PO, nil)
	c.connect(inp1, u1)
	c.connect(inp2, u1)
	c.connect(u1, u4)
	c.connect(f1q, u2)
	c.connect(u2, u3)
	c.connect(u3, u4)
	c.connect(u4, f1d)
	c.connect(u4, out)
	return c
}
