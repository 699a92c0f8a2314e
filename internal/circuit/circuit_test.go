package circuit

import (
	"testing"
	"testing/quick"

	"gotaskflow/internal/levelize"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("a", Config{Gates: 500, Seed: 3})
	b := Generate("b", Config{Gates: 500, Seed: 3})
	if a.NumGates() != b.NumGates() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different circuits")
	}
	cellName := func(g *Gate) string {
		if g.Cell == nil {
			return ""
		}
		return g.Cell.Name
	}
	for i := range a.Gates {
		if a.Gates[i].Kind != b.Gates[i].Kind || cellName(a.Gates[i]) != cellName(b.Gates[i]) {
			t.Fatalf("gate %d differs", i)
		}
	}
	c := Generate("c", Config{Gates: 500, Seed: 4})
	if c.NumEdges() == a.NumEdges() {
		same := true
		for i := range a.Gates {
			if len(a.Gates[i].Fanin) != len(c.Gates[i].Fanin) {
				same = false
				break
			}
		}
		if same {
			t.Log("seeds 3 and 4 produced structurally similar circuits (suspicious but not fatal)")
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	c := Generate("t", Config{Gates: 2000, Seed: 7})
	starts, ends, combs := 0, 0, 0
	for i, g := range c.Gates {
		if g.ID != i {
			t.Fatalf("gate %d has ID %d", i, g.ID)
		}
		switch g.Kind {
		case PI:
			starts++
			if len(g.Fanin) != 0 {
				t.Fatalf("PI %d has fanin", i)
			}
		case FFQ:
			starts++
			if len(g.Fanin) != 0 || g.Cell == nil || !g.Cell.Sequential {
				t.Fatalf("FFQ %d malformed", i)
			}
		case Comb:
			combs++
			if g.Cell == nil || g.Cell.Sequential {
				t.Fatalf("comb gate %d has bad cell", i)
			}
			if len(g.Fanin) != g.Cell.NumInputs {
				t.Fatalf("gate %d: %d fanins for %s", i, len(g.Fanin), g.Cell.Name)
			}
		case FFD, PO:
			ends++
			if len(g.Fanin) != 1 {
				t.Fatalf("endpoint %d has %d fanins", i, len(g.Fanin))
			}
			if len(g.Fanout) != 0 {
				t.Fatalf("endpoint %d has fanout", i)
			}
		}
	}
	if combs != 2000 {
		t.Fatalf("generated %d comb gates, want 2000", combs)
	}
	if starts == 0 || ends == 0 {
		t.Fatal("no startpoints or endpoints")
	}
}

func TestEdgesForwardAndConsistent(t *testing.T) {
	c := Generate("t", Config{Gates: 1000, Seed: 11})
	for u, g := range c.Gates {
		for _, vi := range g.Fanout {
			v := int(vi)
			if v <= u {
				t.Fatalf("backward edge %d -> %d", u, v)
			}
			found := false
			for _, ui := range c.Gates[v].Fanin {
				if int(ui) == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from fanin list", u, v)
			}
		}
	}
}

func TestGenerateLevelizable(t *testing.T) {
	c := Generate("t", Config{Gates: 3000, Seed: 5})
	if _, err := levelize.Levels(c); err != nil {
		t.Fatalf("circuit not levelizable: %v", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{PI: "PI", FFQ: "FFQ", Comb: "Comb", FFD: "FFD", PO: "PO", Kind(99): "?"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStartEndPredicates(t *testing.T) {
	c := Figure8()
	for _, g := range c.Gates {
		isStart := g.Kind == PI || g.Kind == FFQ
		isEnd := g.Kind == PO || g.Kind == FFD
		if g.IsStart() != isStart || g.IsEnd() != isEnd {
			t.Fatalf("gate %s predicates wrong", g.Name)
		}
	}
}

func TestFigure8Topology(t *testing.T) {
	c := Figure8()
	if c.NumGates() != 9 {
		t.Fatalf("Figure8 has %d gates, want 9", c.NumGates())
	}
	byName := map[string]*Gate{}
	for _, g := range c.Gates {
		byName[g.Name] = g
	}
	u4 := byName["u4"]
	if len(u4.Fanin) != 2 || len(u4.Fanout) != 2 {
		t.Fatalf("u4 has %d fanins, %d fanouts", len(u4.Fanin), len(u4.Fanout))
	}
	if byName["u1"].Cell.Family != "AND2" {
		t.Fatal("u1 cell family")
	}
	if _, err := levelize.Levels(c); err != nil {
		t.Fatal(err)
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBackwardEdge(t *testing.T) {
	c := Figure8()
	// Manufacture a backward edge.
	c.Gates[5].Fanout = append(c.Gates[5].Fanout, 1)
	c.Gates[1].Fanin = append(c.Gates[1].Fanin, 5)
	if err := c.validate(); err == nil {
		t.Fatal("Validate missed backward edge")
	}
}

func TestGenerateValidates(t *testing.T) {
	c := Generate("t", Config{Gates: 1200, Seed: 19})
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: any configuration yields a well-formed, levelizable circuit
// with all comb fanin counts matching the mapped cell.
func TestQuickGenerateWellFormed(t *testing.T) {
	f := func(seed int64, gateSel uint16, ffSel uint8) bool {
		gates := int(gateSel%400) + 1
		cfg := Config{
			Gates:   gates,
			FFRatio: float64(ffSel%20) / 100,
			Seed:    seed,
		}
		c := Generate("q", cfg)
		if _, err := levelize.Levels(c); err != nil {
			return false
		}
		for _, g := range c.Gates {
			if g.Kind == Comb && len(g.Fanin) != g.Cell.NumInputs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleToLargeCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := Generate("big", Config{Gates: 200000, Seed: 1})
	if c.NumGates() < 200000 {
		t.Fatalf("NumGates = %d", c.NumGates())
	}
	if c.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}
