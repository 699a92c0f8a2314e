// Package celllib provides a synthetic standard-cell timing library in the
// style of the NanGate 45nm library the Cpp-Taskflow paper's OpenTimer
// experiments use (Section IV-B). Since the real Liberty files are not
// redistributable here, the library is generated formulaically: each cell
// carries NLDM-style two-dimensional lookup tables (input slew × output
// load -> delay / output slew) whose values follow the standard linear
// delay model d = a + b·load + c·slew + e·load·slew with
// drive-strength-dependent coefficients in 45nm-like magnitudes
// (picoseconds, femtofarads). The substitution preserves what the
// experiments measure: lookup-table interpolation cost per propagation task
// and realistic relative deltas under gate resizing.
package celllib

import "fmt"

// Table is a two-dimensional NLDM lookup table indexed by input slew (ps)
// and output load (fF).
type Table struct {
	SlewIndex []float64 // ascending, ps
	LoadIndex []float64 // ascending, fF
	Values    [][]float64
}

// Lookup bilinearly interpolates the table at (slew, load), clamping to the
// table boundary like standard STA engines do outside the characterized
// range.
func (t *Table) Lookup(slew, load float64) float64 {
	si, sf := locate(t.SlewIndex, slew)
	li, lf := locate(t.LoadIndex, load)
	v00 := t.Values[si][li]
	v01 := t.Values[si][li+1]
	v10 := t.Values[si+1][li]
	v11 := t.Values[si+1][li+1]
	return v00*(1-sf)*(1-lf) + v01*(1-sf)*lf + v10*sf*(1-lf) + v11*sf*lf
}

// locate returns the lower index and fractional position of x within the
// ascending axis, clamped to [0, 1] at the boundaries.
func locate(axis []float64, x float64) (int, float64) {
	n := len(axis)
	if x <= axis[0] {
		return 0, 0
	}
	if x >= axis[n-1] {
		return n - 2, 1
	}
	lo := 0
	for lo+1 < n-1 && axis[lo+1] <= x {
		lo++
	}
	frac := (x - axis[lo]) / (axis[lo+1] - axis[lo])
	return lo, frac
}

// Unateness describes how an input transition maps to the output
// transition of a timing arc, as in Liberty timing_sense.
type Unateness uint8

const (
	// PositiveUnate: a rising input produces a rising output (BUF, AND).
	PositiveUnate Unateness = iota
	// NegativeUnate: a rising input produces a falling output (INV, NAND).
	NegativeUnate
	// NonUnate: either input transition can produce either output
	// transition (XOR).
	NonUnate
)

// Transition selects the signal edge of a timing quantity.
type Transition uint8

const (
	// Rise selects the rising edge.
	Rise Transition = 0
	// Fall selects the falling edge.
	Fall Transition = 1
)

// NumTransitions is the number of signal edges analyzed.
const NumTransitions = 2

// Arc is a timing arc from one input pin to the cell output, with
// separate NLDM tables per output transition as in real Liberty cells.
type Arc struct {
	DelayRise   *Table // ps, output rising
	DelayFall   *Table // ps, output falling
	OutSlewRise *Table // ps
	OutSlewFall *Table // ps
}

// Delay returns the delay table for the given output transition.
func (a *Arc) Delay(tr Transition) *Table {
	if tr == Rise {
		return a.DelayRise
	}
	return a.DelayFall
}

// OutSlew returns the output-slew table for the given output transition.
func (a *Arc) OutSlew(tr Transition) *Table {
	if tr == Rise {
		return a.OutSlewRise
	}
	return a.OutSlewFall
}

// Cell is one library cell: n-input, single-output combinational logic or
// a sequential element.
type Cell struct {
	Name       string
	Family     string // e.g. "INV", "NAND2"; resize swaps within a family
	Drive      int    // drive strength (X1, X2, X4)
	NumInputs  int
	InputCap   float64 // fF per input pin
	Arcs       []Arc   // one per input pin
	Unate      Unateness
	Sequential bool // DFF family
}

// Library is a collection of cells indexed by name and by family/drive.
type Library struct {
	Cells    map[string]*Cell
	families map[string][]*Cell // family -> cells sorted by drive
}

// standard NLDM axes (7x7), 45nm-like ranges.
var (
	slewAxis = []float64{5, 10, 20, 40, 80, 160, 320} // ps
	loadAxis = []float64{0.5, 1, 2, 4, 8, 16, 32}     // fF
)

// genTable builds a monotone table from the linear delay model.
func genTable(a, b, c, e float64) *Table {
	t := &Table{SlewIndex: slewAxis, LoadIndex: loadAxis}
	t.Values = make([][]float64, len(slewAxis))
	for i, s := range slewAxis {
		t.Values[i] = make([]float64, len(loadAxis))
		for j, l := range loadAxis {
			t.Values[i][j] = a + b*l + c*s + e*l*s
		}
	}
	return t
}

type proto struct {
	family    string
	numInputs int
	baseDelay float64 // intrinsic delay of the X1 variant, ps
	baseCap   float64 // input cap of the X1 variant, fF
	unate     Unateness
	seq       bool
}

var prototypes = []proto{
	{"INV", 1, 8, 1.0, NegativeUnate, false},
	{"BUF", 1, 14, 1.1, PositiveUnate, false},
	{"NAND2", 2, 12, 1.2, NegativeUnate, false},
	{"NOR2", 2, 14, 1.3, NegativeUnate, false},
	{"AND2", 2, 18, 1.2, PositiveUnate, false},
	{"OR2", 2, 19, 1.3, PositiveUnate, false},
	{"XOR2", 2, 26, 1.8, NonUnate, false},
	{"AOI21", 2, 16, 1.4, NegativeUnate, false},
	{"DFF", 1, 30, 1.5, PositiveUnate, true},
}

// fallFactor skews falling-edge tables against rising ones: NMOS pulldown
// networks are a bit faster than PMOS pullups in typical libraries.
const fallFactor = 0.92

// NewNanGate45Like builds the synthetic library: every prototype in drive
// strengths X1, X2 and X4. Higher drive means lower delay sensitivity to
// load but higher input capacitance, as in real libraries — which is what
// gives gate resizing its timing effect.
func NewNanGate45Like() *Library {
	lib := &Library{Cells: map[string]*Cell{}, families: map[string][]*Cell{}}
	for _, p := range prototypes {
		for _, drive := range []int{1, 2, 4} {
			d := float64(drive)
			cell := &Cell{
				Name:       fmt.Sprintf("%s_X%d", p.family, drive),
				Family:     p.family,
				Drive:      drive,
				NumInputs:  p.numInputs,
				InputCap:   p.baseCap * (1 + 0.6*(d-1)),
				Unate:      p.unate,
				Sequential: p.seq,
			}
			for k := 0; k < p.numInputs; k++ {
				// Later pins are marginally slower, like real cells.
				skew := 1 + 0.07*float64(k)
				f := fallFactor
				cell.Arcs = append(cell.Arcs, Arc{
					DelayRise:   genTable(p.baseDelay*skew, 3.2/d, 0.10, 0.012/d),
					DelayFall:   genTable(p.baseDelay*skew*f, 3.2*f/d, 0.10*f, 0.012/d),
					OutSlewRise: genTable(p.baseDelay*0.6*skew, 2.4/d, 0.16, 0.010/d),
					OutSlewFall: genTable(p.baseDelay*0.6*skew*f, 2.4*f/d, 0.16*f, 0.010/d),
				})
			}
			lib.Cells[cell.Name] = cell
			lib.families[p.family] = append(lib.families[p.family], cell)
		}
	}
	return lib
}

// Cell returns the named cell or nil.
func (l *Library) Cell(name string) *Cell { return l.Cells[name] }

// Resize returns the variant of c's family with the next drive strength in
// the given direction (+1 up, -1 down), or c itself at the range ends.
func (l *Library) Resize(c *Cell, dir int) *Cell {
	variants := l.families[c.Family]
	for i, v := range variants {
		if v == c {
			j := i + dir
			if j < 0 {
				j = 0
			}
			if j >= len(variants) {
				j = len(variants) - 1
			}
			return variants[j]
		}
	}
	return c
}

// Combinational returns all non-sequential cells with the given number of
// inputs, in deterministic order.
func (l *Library) Combinational(numInputs int) []*Cell {
	var out []*Cell
	for _, p := range prototypes {
		if p.seq || p.numInputs != numInputs {
			continue
		}
		out = append(out, l.families[p.family]...)
	}
	return out
}

// DFF returns the flip-flop family variants.
func (l *Library) DFF() []*Cell { return l.families["DFF"] }
