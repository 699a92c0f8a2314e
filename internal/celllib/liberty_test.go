package celllib

import (
	"math"
	"strings"
	"testing"
)

func TestLibertyRoundTrip(t *testing.T) {
	lib := NewNanGate45Like()
	var sb strings.Builder
	if err := lib.WriteLiberty(&sb, "gotaskflow45"); err != nil {
		t.Fatal(err)
	}
	got, err := ParseLiberty(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(lib.Cells) {
		t.Fatalf("round-trip has %d cells, want %d", len(got.Cells), len(lib.Cells))
	}
	for name, want := range lib.Cells {
		c := got.Cell(name)
		if c == nil {
			t.Fatalf("cell %s missing after round-trip", name)
		}
		if c.Family != want.Family || c.Drive != want.Drive {
			t.Fatalf("%s family/drive = %s/%d, want %s/%d", name, c.Family, c.Drive, want.Family, want.Drive)
		}
		if c.NumInputs != want.NumInputs || c.Sequential != want.Sequential || c.Unate != want.Unate {
			t.Fatalf("%s shape mismatch", name)
		}
		if math.Abs(c.InputCap-want.InputCap) > 1e-12 {
			t.Fatalf("%s input cap %v, want %v", name, c.InputCap, want.InputCap)
		}
		for k := range want.Arcs {
			for _, pair := range [][2]*Table{
				{c.Arcs[k].DelayRise, want.Arcs[k].DelayRise},
				{c.Arcs[k].DelayFall, want.Arcs[k].DelayFall},
				{c.Arcs[k].OutSlewRise, want.Arcs[k].OutSlewRise},
				{c.Arcs[k].OutSlewFall, want.Arcs[k].OutSlewFall},
			} {
				if !tablesEqual(pair[0], pair[1]) {
					t.Fatalf("%s arc %d table mismatch", name, k)
				}
			}
		}
	}
	// Family index must work after parsing.
	if len(got.families["INV"]) != 3 {
		t.Fatalf("INV family = %d variants", len(got.families["INV"]))
	}
	if got.Resize(got.Cell("INV_X1"), +1) != got.Cell("INV_X2") {
		t.Fatal("Resize broken after round-trip")
	}
}

func tablesEqual(a, b *Table) bool {
	if a == nil || b == nil {
		return false
	}
	if len(a.SlewIndex) != len(b.SlewIndex) || len(a.LoadIndex) != len(b.LoadIndex) {
		return false
	}
	for i := range a.SlewIndex {
		if a.SlewIndex[i] != b.SlewIndex[i] {
			return false
		}
	}
	for i := range a.LoadIndex {
		if a.LoadIndex[i] != b.LoadIndex[i] {
			return false
		}
	}
	for i := range a.Values {
		for j := range a.Values[i] {
			if a.Values[i][j] != b.Values[i][j] {
				return false
			}
		}
	}
	return true
}

func TestLibertyOutputLooksLikeLiberty(t *testing.T) {
	lib := NewNanGate45Like()
	var sb strings.Builder
	if err := lib.WriteLiberty(&sb, "lib45"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"library (lib45) {",
		"cell (INV_X1) {",
		"timing_sense : negative_unate;",
		"related_pin : \"A\";",
		"cell_rise (delay_template) {",
		"index_1 (",
		"ff (IQ,IQN)",
		"direction : input;",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("liberty output missing %q", want)
		}
	}
}

func TestParseLibertyErrors(t *testing.T) {
	cases := map[string]string{
		"notLibrary":  `cell (X) { }`,
		"eofInGroup":  `library (x) { cell (A) {`,
		"badTable":    `library (x) { cell (A_X1) { pin (A) { direction : input; capacitance : 1; } pin (Y) { direction : output; timing () { related_pin : "A"; timing_sense : positive_unate; cell_rise (t) { index_1 ("1,2"); index_2 ("1,2"); values ("1,2"); } } } } }`,
		"unknownPin":  `library (x) { cell (A_X1) { pin (A) { direction : input; capacitance : 1; } pin (Y) { direction : output; timing () { related_pin : "Z"; } } } }`,
		"badFloat":    `library (x) { cell (A_X1) { pin (A) { direction : input; capacitance : 1; } pin (Y) { direction : output; timing () { related_pin : "A"; cell_rise (t) { index_1 ("abc"); index_2 ("1"); values ("1"); } } } } }`,
		"missingArcs": `library (x) { cell (A_X1) { pin (A) { direction : input; capacitance : 1; } pin (Y) { direction : output; } } }`,
	}
	for name, src := range cases {
		if _, err := ParseLiberty(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: parse accepted invalid input", name)
		}
	}
}

func TestParseLibertyTolerant(t *testing.T) {
	// Unknown attributes and comments must be skipped.
	src := `// a comment
library (tiny) {
  time_unit : "1ps";
  operating_conditions (typ) { process : 1; }
  cell (BUF_X1) {
    area : 1.5;
    pin (A) { direction : input; capacitance : 2.0; }
    pin (Y) {
      direction : output;
      max_capacitance : 50;
      timing () {
        related_pin : "A";
        timing_sense : positive_unate;
        cell_rise (t) { index_1 ("1,2"); index_2 ("1,2"); values ("1,2", "3,4"); }
        cell_fall (t) { index_1 ("1,2"); index_2 ("1,2"); values ("1,2", "3,4"); }
        rise_transition (t) { index_1 ("1,2"); index_2 ("1,2"); values ("1,2", "3,4"); }
        fall_transition (t) { index_1 ("1,2"); index_2 ("1,2"); values ("1,2", "3,4"); }
      }
    }
  }
}`
	lib, err := ParseLiberty(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c := lib.Cell("BUF_X1")
	if c == nil || c.NumInputs != 1 || c.InputCap != 2.0 || c.Unate != PositiveUnate {
		t.Fatalf("parsed cell wrong: %+v", c)
	}
	if got := c.Arcs[0].DelayRise.Lookup(1, 1); got != 1 {
		t.Fatalf("table corner = %v", got)
	}
}
