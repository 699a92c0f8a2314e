package core

import (
	"fmt"
	"io"
	"time"
)

// Dump writes the present (not yet dispatched) task dependency graph in
// GraphViz DOT format (paper Section III-G). Spawned subflows only exist
// after execution; use DumpTopologies to visualize them.
func (tf *Taskflow) Dump(w io.Writer) error {
	d := dotDumper{w: w, ids: map[*node]string{}}
	d.printf("digraph %s {\n", dotName(tf.name, "Taskflow"))
	d.dumpGraph(tf.g, "")
	d.printf("}\n")
	return d.err
}

// DumpAnnotated writes the present graph in DOT format with each node's
// label annotated with its execution count — and, when CollectRunStats
// was enabled with timing, its summed body duration — from the most
// recent Run. A node reads "name\n×count" or "name\n×count (duration)";
// a condition-loop body that iterated five times shows ×5, a branch
// never taken shows ×0. Without a prior stats-collecting Run all counts
// are zero.
// A timed run additionally prefixes the dump with the hot-task ranking
// (top tasks by self time) as DOT comments, using the same names as the
// node labels and trace spans.
func (tf *Taskflow) DumpAnnotated(w io.Writer) error {
	d := dotDumper{w: w, ids: map[*node]string{}, annotate: true}
	d.printf("digraph %s {\n", dotName(tf.name, "Taskflow"))
	d.dumpHot(tf.g)
	d.dumpGraph(tf.g, "")
	d.printf("}\n")
	return d.err
}

// dumpHot emits the graph's hot-task ranking as DOT comments. Rankings
// need per-task durations, so a count-only (or stats-less) dump emits
// nothing and stays byte-identical to earlier releases.
func (d *dotDumper) dumpHot(g *graph) {
	hot := hotTasks(g, hotTaskK)
	if len(hot) == 0 {
		return
	}
	d.printf("  // hot tasks (top %d by self time):\n", len(hot))
	for i, h := range hot {
		d.printf("  //   %d. %s ×%d (%s)\n",
			i+1, h.Name, h.Count, h.Total.Round(time.Microsecond))
	}
}

// DumpTopologiesAnnotated is DumpTopologies with the per-task execution
// annotations of DumpAnnotated, covering dispatched topologies and the
// subflows they spawned at runtime.
func (tf *Taskflow) DumpTopologiesAnnotated(w io.Writer) error {
	d := dotDumper{w: w, ids: map[*node]string{}, annotate: true}
	for i, t := range tf.topologies {
		d.printf("digraph %s {\n", dotName(tf.name, fmt.Sprintf("Topology%d", i)))
		d.dumpGraph(t.graph, "")
		d.printf("}\n")
	}
	return d.err
}

// DumpTopologies writes every dispatched, not yet reclaimed topology,
// including task graphs spawned dynamically at runtime, which appear as
// nested clusters (paper Figure 5). Call it after the futures complete and
// before WaitForAll reclaims the topologies.
func (tf *Taskflow) DumpTopologies(w io.Writer) error {
	d := dotDumper{w: w, ids: map[*node]string{}}
	for i, t := range tf.topologies {
		d.printf("digraph %s {\n", dotName(tf.name, fmt.Sprintf("Topology%d", i)))
		d.dumpGraph(t.graph, "")
		d.printf("}\n")
	}
	return d.err
}

type dotDumper struct {
	w    io.Writer
	err  error
	ids  map[*node]string
	used map[string]bool // every id handed out
	next int

	// annotate labels each node with its execution count (and duration,
	// when timed) from the node's per-run stat counters.
	annotate bool
}

func (d *dotDumper) printf(format string, args ...any) {
	if d.err != nil {
		return
	}
	_, d.err = fmt.Fprintf(d.w, format, args...)
}

func (d *dotDumper) id(n *node) string {
	if s, ok := d.ids[n]; ok {
		return s
	}
	if d.used == nil {
		d.used = map[string]bool{}
	}
	// Disambiguate duplicate user names: name_<counter>, counting on past
	// any suffixed name that is itself taken.
	s := n.label(d.next)
	for base, k := s, d.next; d.used[s]; k++ {
		s = fmt.Sprintf("%s_%d", base, k)
	}
	d.next++
	d.ids[n] = s
	d.used[s] = true
	return s
}

// dumpGraph emits the nodes and edges of g at the given indentation,
// recursing into spawned subflows as clusters.
func (d *dotDumper) dumpGraph(g *graph, indent string) {
	for _, n := range g.nodes {
		if d.annotate {
			d.printf("%s  %q [label=%q];\n", indent, d.id(n), d.annotation(n))
		} else {
			d.printf("%s  %q;\n", indent, d.id(n))
		}
	}
	for _, n := range g.nodes {
		if n.isCondition() {
			// Weak edges: dashed, labeled with the branch index.
			for i := 0; i < int(n.succCount); i++ {
				d.printf("%s  %q -> %q [style=dashed label=\"%d\"];\n",
					indent, d.id(n), d.id(n.successor(i)), i)
			}
		} else {
			n.eachSuccessor(func(s *node) {
				d.printf("%s  %q -> %q;\n", indent, d.id(n), d.id(s))
			})
		}
		if sg := n.spawned(); sg != nil && sg.len() > 0 {
			d.printf("%s  subgraph \"cluster_%s\" {\n", indent, d.id(n))
			d.printf("%s    label = \"Subflow_%s\";\n", indent, d.id(n))
			d.dumpGraph(sg, indent+"    ")
			// Joined subflows complete before the parent's successors run;
			// draw the join edges from the subflow sinks to the parent's
			// successors for readability.
			d.printf("%s  }\n", indent)
			if !n.ext.detached {
				for _, c := range sg.nodes {
					if c.numSuccessors() == 0 {
						n.eachSuccessor(func(s *node) {
							d.printf("%s  %q -> %q [style=dashed];\n", indent, d.id(c), d.id(s))
						})
					}
				}
			}
		}
	}
}

// annotation renders a node's annotated label: its id, the execution count
// of the last stats-collecting run, and the summed body duration when
// timing was on (execDurNs stays zero otherwise, keeping count-only dumps
// deterministic for golden tests).
func (d *dotDumper) annotation(n *node) string {
	s := fmt.Sprintf("%s\n×%d", d.id(n), n.execCount)
	if dur := n.execDurNs; dur > 0 {
		s += fmt.Sprintf(" (%s)", time.Duration(dur).Round(time.Microsecond))
	}
	return s
}

func dotName(name, fallback string) string {
	if name == "" {
		name = fallback
	}
	return fmt.Sprintf("%q", name)
}
