package celllib

import (
	"testing"
	"testing/quick"
)

func TestLibraryContents(t *testing.T) {
	lib := NewNanGate45Like()
	for _, name := range []string{"INV_X1", "INV_X2", "INV_X4", "NAND2_X1", "DFF_X1", "XOR2_X4"} {
		if lib.Cell(name) == nil {
			t.Fatalf("missing cell %s", name)
		}
	}
	if lib.Cell("NAND3_X1") != nil {
		t.Fatal("unexpected cell")
	}
	if got := len(lib.families["INV"]); got != 3 {
		t.Fatalf("INV family has %d variants, want 3", got)
	}
	inv := lib.Cell("INV_X1")
	if inv.NumInputs != 1 || len(inv.Arcs) != 1 {
		t.Fatal("INV_X1 malformed")
	}
	nand := lib.Cell("NAND2_X1")
	if nand.NumInputs != 2 || len(nand.Arcs) != 2 {
		t.Fatal("NAND2_X1 malformed")
	}
}

func TestLookupAtGridPoints(t *testing.T) {
	tab := genTable(10, 2, 0.5, 0.01)
	for i, s := range tab.SlewIndex {
		for j, l := range tab.LoadIndex {
			want := tab.Values[i][j]
			if got := tab.Lookup(s, l); !close(got, want) {
				t.Fatalf("Lookup(%v,%v) = %v, want %v", s, l, got, want)
			}
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestLookupInterpolatesLinearModel(t *testing.T) {
	// The generating model is bilinear, so interpolation must reproduce it
	// exactly inside the grid.
	a, b, c, e := 7.0, 1.5, 0.3, 0.02
	tab := genTable(a, b, c, e)
	f := func(sRaw, lRaw uint16) bool {
		s := 5 + float64(sRaw%315)  // inside [5, 320)
		l := 0.5 + float64(lRaw%31) // inside [0.5, 31.5)
		want := a + b*l + c*s + e*l*s
		return close(tab.Lookup(s, l), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupClampsOutsideGrid(t *testing.T) {
	tab := genTable(10, 2, 0.5, 0.01)
	lo := tab.Lookup(0, 0)
	if !close(lo, tab.Values[0][0]) {
		t.Fatalf("below-range lookup = %v, want corner %v", lo, tab.Values[0][0])
	}
	hi := tab.Lookup(1e6, 1e6)
	n, m := len(tab.SlewIndex)-1, len(tab.LoadIndex)-1
	if !close(hi, tab.Values[n][m]) {
		t.Fatalf("above-range lookup = %v, want corner %v", hi, tab.Values[n][m])
	}
}

func TestTablesMonotone(t *testing.T) {
	lib := NewNanGate45Like()
	for name, c := range lib.Cells {
		for k, arc := range c.Arcs {
			for _, tab := range []*Table{arc.DelayRise, arc.DelayFall, arc.OutSlewRise, arc.OutSlewFall} {
				for i := range tab.Values {
					for j := range tab.Values[i] {
						if tab.Values[i][j] <= 0 {
							t.Fatalf("%s arc %d: non-positive entry", name, k)
						}
						if j > 0 && tab.Values[i][j] < tab.Values[i][j-1] {
							t.Fatalf("%s arc %d: not monotone in load", name, k)
						}
						if i > 0 && tab.Values[i][j] < tab.Values[i-1][j] {
							t.Fatalf("%s arc %d: not monotone in slew", name, k)
						}
					}
				}
			}
		}
	}
}

func TestDriveStrengthTradeoff(t *testing.T) {
	lib := NewNanGate45Like()
	x1, x4 := lib.Cell("INV_X1"), lib.Cell("INV_X4")
	// Higher drive: larger input cap, lower delay under heavy load.
	if x4.InputCap <= x1.InputCap {
		t.Fatal("X4 input cap should exceed X1")
	}
	heavyLoad := 30.0
	if x4.Arcs[0].DelayRise.Lookup(20, heavyLoad) >= x1.Arcs[0].DelayRise.Lookup(20, heavyLoad) {
		t.Fatal("X4 should be faster than X1 under heavy load")
	}
}

func TestTransitionAccessors(t *testing.T) {
	lib := NewNanGate45Like()
	arc := &lib.Cell("INV_X1").Arcs[0]
	if arc.Delay(Rise) != arc.DelayRise || arc.Delay(Fall) != arc.DelayFall {
		t.Fatal("Arc.Delay accessor wrong")
	}
	if arc.OutSlew(Rise) != arc.OutSlewRise || arc.OutSlew(Fall) != arc.OutSlewFall {
		t.Fatal("Arc.OutSlew accessor wrong")
	}
}

func TestFallFasterThanRise(t *testing.T) {
	// NMOS pulldowns beat PMOS pullups: falling-edge tables must be
	// uniformly faster.
	lib := NewNanGate45Like()
	for name, c := range lib.Cells {
		for k := range c.Arcs {
			arc := &c.Arcs[k]
			if arc.DelayFall.Lookup(20, 4) >= arc.DelayRise.Lookup(20, 4) {
				t.Fatalf("%s arc %d: fall delay not below rise delay", name, k)
			}
		}
	}
}

func TestUnateness(t *testing.T) {
	lib := NewNanGate45Like()
	for family, want := range map[string]Unateness{
		"INV": NegativeUnate, "NAND2": NegativeUnate, "NOR2": NegativeUnate,
		"AOI21": NegativeUnate, "BUF": PositiveUnate, "AND2": PositiveUnate,
		"OR2": PositiveUnate, "XOR2": NonUnate, "DFF": PositiveUnate,
	} {
		for _, c := range lib.families[family] {
			if c.Unate != want {
				t.Fatalf("%s unateness = %d, want %d", c.Name, c.Unate, want)
			}
		}
	}
}

func TestResize(t *testing.T) {
	lib := NewNanGate45Like()
	x1 := lib.Cell("NAND2_X1")
	x2 := lib.Resize(x1, +1)
	if x2.Drive != 2 || x2.Family != "NAND2" {
		t.Fatalf("Resize up = %s", x2.Name)
	}
	x4 := lib.Resize(x2, +1)
	if x4.Drive != 4 {
		t.Fatalf("Resize up twice = %s", x4.Name)
	}
	if lib.Resize(x4, +1) != x4 {
		t.Fatal("Resize beyond X4 should clamp")
	}
	if lib.Resize(x1, -1) != x1 {
		t.Fatal("Resize below X1 should clamp")
	}
	if lib.Resize(x4, -1) != x2 {
		t.Fatal("Resize down broken")
	}
}

func TestCombinationalSelection(t *testing.T) {
	lib := NewNanGate45Like()
	one := lib.Combinational(1)
	two := lib.Combinational(2)
	if len(one) != 6 { // INV, BUF × 3 drives
		t.Fatalf("Combinational(1) = %d cells", len(one))
	}
	if len(two) != 18 { // NAND2, NOR2, AND2, OR2, XOR2, AOI21 × 3 drives
		t.Fatalf("Combinational(2) = %d cells", len(two))
	}
	for _, c := range append(one, two...) {
		if c.Sequential {
			t.Fatalf("Combinational returned sequential cell %s", c.Name)
		}
	}
	if len(lib.DFF()) != 3 {
		t.Fatalf("DFF variants = %d", len(lib.DFF()))
	}
}

func TestArcSkewAcrossPins(t *testing.T) {
	lib := NewNanGate45Like()
	nand := lib.Cell("NAND2_X1")
	d0 := nand.Arcs[0].DelayRise.Lookup(20, 4)
	d1 := nand.Arcs[1].DelayRise.Lookup(20, 4)
	if d1 <= d0 {
		t.Fatal("second pin should be marginally slower")
	}
}
