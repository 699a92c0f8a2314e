package circuit

// Gate-level structural Verilog serialization: the netlist interchange
// format the paper's benchmark circuits (tv80, vga_lcd, netcard, leon3mp)
// ship in and OpenTimer consumes. WriteVerilog emits a flat module with
// one instance per gate; ParseVerilog reads the subset back, rebuilding
// the timing graph in topological index order. Wire capacitances — which
// Verilog cannot express — travel in `// cap <net> <value>` comment
// directives so the round trip preserves timing exactly.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gotaskflow/internal/celllib"
	"gotaskflow/internal/levelize"
)

// netName returns the name of the net driven by gate v.
func netName(g *Gate) string {
	switch g.Kind {
	case PI, PO:
		return sanitize(g.Name)
	case FFQ, FFD:
		return sanitize(g.Name) // f3:Q -> f3_Q
	}
	return fmt.Sprintf("n%d", g.ID)
}

func sanitize(s string) string {
	return strings.NewReplacer(":", "_", " ", "_").Replace(s)
}

// WriteVerilog emits the circuit as a flat gate-level Verilog module.
func (c *Circuit) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var inputs, outputs, wires []string
	for _, g := range c.Gates {
		switch g.Kind {
		case PI:
			inputs = append(inputs, netName(g))
		case PO:
			outputs = append(outputs, netName(g))
		case Comb, FFQ, FFD:
			wires = append(wires, netName(g))
		}
	}
	ports := append(append([]string{}, inputs...), outputs...)
	fmt.Fprintf(bw, "module %s (%s);\n", sanitize(c.Name), strings.Join(ports, ", "))
	writeDecl(bw, "input", inputs)
	writeDecl(bw, "output", outputs)
	writeDecl(bw, "wire", wires)
	bw.WriteString("\n")

	// Wire capacitance directives (Verilog has no native representation).
	for _, g := range c.Gates {
		if g.WireCap != 0 {
			fmt.Fprintf(bw, "  // cap %s %s\n", netName(g), strconv.FormatFloat(g.WireCap, 'g', -1, 64))
		}
	}
	bw.WriteString("\n")

	// Instances. Flip-flops pair an FFD (data pin) with its FFQ (output);
	// the generator creates them with matching indices (fK:D / fK:Q).
	ffq := map[string]*Gate{}
	for _, g := range c.Gates {
		if g.Kind == FFQ {
			ffq[strings.TrimSuffix(g.Name, ":Q")] = g
		}
	}
	for _, g := range c.Gates {
		switch g.Kind {
		case Comb:
			pins := make([]string, 0, len(g.Fanin)+1)
			for k, ui := range g.Fanin {
				pins = append(pins, fmt.Sprintf(".%s(%s)",
					combPin(k), netName(c.Gates[ui])))
			}
			pins = append(pins, fmt.Sprintf(".Y(%s)", netName(g)))
			fmt.Fprintf(bw, "  %s %s (%s);\n", g.Cell.Name, sanitize(g.Name), strings.Join(pins, ", "))
		case FFD:
			base := strings.TrimSuffix(g.Name, ":D")
			q, ok := ffq[base]
			if !ok {
				return fmt.Errorf("verilog: flip-flop %s has no Q pin gate", base)
			}
			fmt.Fprintf(bw, "  %s %s (.D(%s), .CK(clk), .Q(%s));\n",
				q.Cell.Name, sanitize(base),
				netName(c.Gates[g.Fanin[0]]), netName(q))
		case PO:
			// Output port driven through an assign from its fanin net.
			fmt.Fprintf(bw, "  assign %s = %s;\n", netName(g), netName(c.Gates[g.Fanin[0]]))
		}
	}
	bw.WriteString("endmodule\n")
	return bw.Flush()
}

func combPin(k int) string { return string(rune('A' + k)) }

func writeDecl(w *bufio.Writer, kind string, names []string) {
	for _, n := range names {
		fmt.Fprintf(w, "  %s %s;\n", kind, n)
	}
}

// ParseVerilog reads a flat gate-level module written by WriteVerilog (or
// hand-written in the same subset) into a Circuit over lib. Gates are
// re-indexed into topological order, so the result satisfies validate.
func ParseVerilog(r io.Reader, lib *celllib.Library) (*Circuit, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	text := string(src)

	// Gather cap directives before stripping comments.
	caps := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "// cap "); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 {
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
					caps[fields[0]] = v
				}
			}
		}
	}

	stmts, name, err := verilogStatements(text)
	if err != nil {
		return nil, err
	}

	// First pass: declare nets and build proto-gates.
	type proto struct {
		name   string
		kind   Kind
		cell   *celllib.Cell
		inNets []string
		outNet string
	}
	var protos []*proto
	declared := map[string]bool{}
	for _, st := range stmts {
		fields := strings.Fields(st)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "input", "output", "wire":
			for _, n := range strings.Split(strings.TrimPrefix(st, fields[0]), ",") {
				n = strings.TrimSpace(n)
				if n == "" {
					continue
				}
				declared[n] = true
				if fields[0] == "input" {
					protos = append(protos, &proto{name: n, kind: PI, outNet: n})
				}
				if fields[0] == "output" {
					protos = append(protos, &proto{name: n, kind: PO, outNet: n + "$po"})
				}
			}
		case "assign":
			// assign out = net;
			rest := strings.TrimPrefix(st, "assign")
			parts := strings.SplitN(rest, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("verilog: malformed assign %q", st)
			}
			lhs := strings.TrimSpace(parts[0])
			rhs := strings.TrimSpace(parts[1])
			for _, p := range protos {
				if p.kind == PO && p.name == lhs {
					p.inNets = []string{rhs}
				}
			}
		default:
			// CELL instname (.PIN(net), ...);
			cellName := fields[0]
			cell := lib.Cell(cellName)
			if cell == nil {
				return nil, fmt.Errorf("verilog: unknown cell %q", cellName)
			}
			open := strings.Index(st, "(")
			if open < 0 || len(fields) < 2 {
				return nil, fmt.Errorf("verilog: malformed instance %q", st)
			}
			inst := fields[1]
			conns, err := parseConnections(st[open:])
			if err != nil {
				return nil, fmt.Errorf("verilog: instance %s: %w", inst, err)
			}
			if cell.Sequential {
				d, q := conns["D"], conns["Q"]
				if d == "" || q == "" {
					return nil, fmt.Errorf("verilog: flip-flop %s missing D or Q", inst)
				}
				protos = append(protos,
					&proto{name: inst + ":Q", kind: FFQ, cell: cell, outNet: q},
					&proto{name: inst + ":D", kind: FFD, cell: cell, inNets: []string{d}})
				continue
			}
			p := &proto{name: inst, kind: Comb, cell: cell, outNet: conns["Y"]}
			if p.outNet == "" {
				return nil, fmt.Errorf("verilog: instance %s has no output pin", inst)
			}
			for k := 0; k < cell.NumInputs; k++ {
				net := conns[combPin(k)]
				if net == "" {
					return nil, fmt.Errorf("verilog: instance %s missing pin %s", inst, combPin(k))
				}
				p.inNets = append(p.inNets, net)
			}
			protos = append(protos, p)
		}
	}

	// Second pass: resolve nets to drivers and build adjacency.
	driver := map[string]int{}
	for i, p := range protos {
		if p.kind == FFD { // no driven net
			continue
		}
		if _, dup := driver[p.outNet]; dup {
			return nil, fmt.Errorf("verilog: net %s multiply driven", p.outNet)
		}
		driver[p.outNet] = i
	}
	adj := make(levelize.Adjacency, len(protos))
	fanins := make([][]int, len(protos))
	for i, p := range protos {
		for _, net := range p.inNets {
			d, ok := driver[net]
			if !ok {
				return nil, fmt.Errorf("verilog: net %s of %s has no driver", net, p.name)
			}
			adj[d] = append(adj[d], i)
			fanins[i] = append(fanins[i], d)
		}
	}
	order, err := levelize.LevelOf(adj)
	if err != nil {
		return nil, fmt.Errorf("verilog: %s: %w", name, err)
	}
	// Topological re-indexing: sort by (level, original index) for
	// determinism.
	perm := make([]int, len(protos))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		if order[perm[a]] != order[perm[b]] {
			return order[perm[a]] < order[perm[b]]
		}
		return perm[a] < perm[b]
	})
	newID := make([]int, len(protos))
	for pos, old := range perm {
		newID[old] = pos
	}

	c := &Circuit{Name: name, Lib: lib}
	for _, old := range perm {
		p := protos[old]
		capKey := p.outNet
		switch p.kind {
		case FFD:
			capKey = sanitize(p.name) // drives no net; keyed by pin name
		case PO:
			capKey = p.name // keyed by the port name, not the $po marker
		}
		g := &Gate{
			ID:      len(c.Gates),
			Name:    p.name,
			Kind:    p.kind,
			Cell:    p.cell,
			WireCap: caps[capKey],
		}
		c.Gates = append(c.Gates, g)
	}
	for old, ins := range fanins {
		for _, d := range ins {
			c.connect(newID[d], newID[old])
		}
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// verilogStatements strips comments, validates the module wrapper and
// splits the body into semicolon-terminated statements.
func verilogStatements(text string) ([]string, string, error) {
	var sb strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(line)
		sb.WriteString(" ")
	}
	body := sb.String()
	mi := strings.Index(body, "module")
	ei := strings.LastIndex(body, "endmodule")
	if mi < 0 || ei < 0 || ei < mi {
		return nil, "", fmt.Errorf("verilog: missing module/endmodule")
	}
	body = strings.TrimSpace(body[mi+len("module") : ei])
	// Module header: name (ports);
	semi := strings.Index(body, ";")
	if semi < 0 {
		return nil, "", fmt.Errorf("verilog: missing module header terminator")
	}
	header := body[:semi]
	name := header
	if p := strings.Index(header, "("); p >= 0 {
		name = header[:p]
	}
	name = strings.TrimSpace(name)
	var stmts []string
	for _, st := range strings.Split(body[semi+1:], ";") {
		st = strings.TrimSpace(st)
		if st != "" {
			stmts = append(stmts, st)
		}
	}
	return stmts, name, nil
}

// parseConnections parses "(.A(n1), .B(n2), .Y(n3))" into pin -> net.
func parseConnections(s string) (map[string]string, error) {
	out := map[string]string{}
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("malformed connection list %q", s)
	}
	// Strip exactly the outer parentheses; inner pin parens must survive.
	s = strings.TrimSuffix(strings.TrimPrefix(s, "("), ")")
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, ".") {
			return nil, fmt.Errorf("malformed pin connection %q", part)
		}
		open := strings.Index(part, "(")
		close := strings.LastIndex(part, ")")
		if open < 0 || close < open {
			return nil, fmt.Errorf("malformed pin connection %q", part)
		}
		pin := strings.TrimSpace(part[1:open])
		net := strings.TrimSpace(part[open+1 : close])
		out[pin] = net
	}
	return out, nil
}
