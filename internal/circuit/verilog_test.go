package circuit

import (
	"strings"
	"testing"
)

func roundTrip(t *testing.T, c *Circuit) *Circuit {
	t.Helper()
	var sb strings.Builder
	if err := c.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseVerilog(strings.NewReader(sb.String()), c.Lib)
	if err != nil {
		t.Fatalf("parse back failed: %v\n--- verilog ---\n%s", err, sb.String())
	}
	return got
}

// gateByName indexes a circuit for structure comparison.
func gateByName(c *Circuit) map[string]*Gate {
	m := map[string]*Gate{}
	for _, g := range c.Gates {
		m[g.Name] = g
	}
	return m
}

func compareCircuits(t *testing.T, want, got *Circuit) {
	t.Helper()
	if got.NumGates() != want.NumGates() {
		t.Fatalf("round-trip has %d gates, want %d", got.NumGates(), want.NumGates())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("round-trip has %d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	wg, gg := gateByName(want), gateByName(got)
	for name, w := range wg {
		g, ok := gg[name]
		if !ok {
			t.Fatalf("gate %s missing after round-trip", name)
		}
		if g.Kind != w.Kind {
			t.Fatalf("gate %s kind %s, want %s", name, g.Kind, w.Kind)
		}
		cellName := func(x *Gate) string {
			if x.Cell == nil {
				return ""
			}
			return x.Cell.Name
		}
		if cellName(g) != cellName(w) {
			t.Fatalf("gate %s cell %q, want %q", name, cellName(g), cellName(w))
		}
		if g.WireCap != w.WireCap {
			t.Fatalf("gate %s wire cap %v, want %v", name, g.WireCap, w.WireCap)
		}
		// Fanin sets must match by driver name (pin order preserved).
		if len(g.Fanin) != len(w.Fanin) {
			t.Fatalf("gate %s has %d fanins, want %d", name, len(g.Fanin), len(w.Fanin))
		}
		for k := range w.Fanin {
			wd := want.Gates[w.Fanin[k]].Name
			gd := got.Gates[g.Fanin[k]].Name
			if wd != gd {
				t.Fatalf("gate %s fanin %d is %s, want %s", name, k, gd, wd)
			}
		}
	}
}

func TestVerilogRoundTripFigure8(t *testing.T) {
	c := Figure8()
	got := roundTrip(t, c)
	compareCircuits(t, c, got)
	if err := got.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVerilogRoundTripGenerated(t *testing.T) {
	c := Generate("netA", Config{Gates: 800, Seed: 17})
	got := roundTrip(t, c)
	compareCircuits(t, c, got)
	if got.Name != "netA" {
		t.Fatalf("module name %q", got.Name)
	}
}

func TestVerilogOutputShape(t *testing.T) {
	c := Figure8()
	var sb strings.Builder
	if err := c.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"module figure8 (",
		"input inp1;",
		"output out;",
		"AND2_X1 u1 (.A(inp1), .B(inp2), .Y(n3));",
		"DFF_X1 f1 (.D(n6), .CK(clk), .Q(f1_Q));",
		"assign out = n6;",
		"// cap n3 1",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("verilog missing %q:\n%s", want, out)
		}
	}
}

func TestParseVerilogErrors(t *testing.T) {
	lib := Figure8().Lib
	cases := map[string]string{
		"noModule":    "wire x;",
		"unknownCell": "module m (a); input a; wire w;\n  FOO_X9 u1 (.A(a), .Y(w));\nendmodule",
		"missingPin":  "module m (a); input a; wire w;\n  NAND2_X1 u1 (.A(a), .Y(w));\nendmodule",
		"noDriver":    "module m (o); output o;\n  assign o = ghost;\nendmodule",
		"doubleDrive": "module m (a); input a; wire w;\n  INV_X1 u1 (.A(a), .Y(w));\n  INV_X1 u2 (.A(a), .Y(w));\nendmodule",
		"combLoop":    "module m (a); input a; wire w1; wire w2;\n  INV_X1 u1 (.A(w2), .Y(w1));\n  INV_X1 u2 (.A(w1), .Y(w2));\nendmodule",
		"badAssign":   "module m (o); output o;\n  assign o;\nendmodule",
		"ffNoQ":       "module m (a); input a;\n  DFF_X1 f1 (.D(a), .CK(clk));\nendmodule",
	}
	for name, src := range cases {
		if _, err := ParseVerilog(strings.NewReader(src), lib); err == nil {
			t.Fatalf("%s: invalid verilog accepted", name)
		}
	}
}

func TestParseVerilogHandWritten(t *testing.T) {
	lib := Figure8().Lib
	src := `
// a small hand-written netlist
module adderish (a, b, o);
  input a; input b;
  output o;
  wire w1; wire w2;
  // cap w1 2.5
  NAND2_X1 g1 (.A(a), .B(b), .Y(w1));
  INV_X2 g2 (.A(w1), .Y(w2));
  assign o = w2;
endmodule
`
	c, err := ParseVerilog(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 5 { // a, b, g1, g2, o
		t.Fatalf("parsed %d gates", c.NumGates())
	}
	g := gateByName(c)
	if g["g1"].WireCap != 2.5 {
		t.Fatalf("cap directive lost: %v", g["g1"].WireCap)
	}
	if g["g2"].Cell.Name != "INV_X2" {
		t.Fatal("cell mapping lost")
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
}
