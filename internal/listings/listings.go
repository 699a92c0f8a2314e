// Package listings reproduces the programmability comparison of the
// Cpp-Taskflow paper's Listings 3-5 (the static Figure-2 graph) and
// Listings 7-8 (the dynamic Figure-4 graph): the same task dependency
// graph written against each library's Go API, kept as source snippets so
// the sloc analyzer can count lines of code and tokens exactly as the
// paper does with SLOCCount. Each snippet is a complete, parseable Go
// function mirroring this repository's real APIs; the tests parse them and
// pin the relative ordering (taskflow < tbb < openmp in verbosity).
package listings

// Listing holds one implementation snippet.
type Listing struct {
	Name   string
	Figure string // which paper figure the snippet builds
	Source string // a complete Go file
}

// figure2Taskflow is the paper's Listing 3 translated to this library.
const figure2Taskflow = `package snippet

import "gotaskflow/internal/core"

func BuildFigure2(body func(string) func()) {
	tf := core.New(0)
	defer tf.Close()
	ts := tf.Emplace(
		body("a0"), body("a1"), body("a2"), body("a3"),
		body("b0"), body("b1"), body("b2"),
	)
	a0, a1, a2, a3, b0, b1, b2 := ts[0], ts[1], ts[2], ts[3], ts[4], ts[5], ts[6]
	a0.Precede(a1)
	a1.Precede(a2, b2)
	a2.Precede(a3)
	b0.Precede(b1)
	b1.Precede(a2, b2)
	b2.Precede(a3)
	tf.WaitForAll()
}
`

// figure2OpenMP is the paper's Listing 4 translated to the omp model:
// every constraint needs a token on both sides and a declaration order
// consistent with sequential execution.
const figure2OpenMP = `package snippet

import "gotaskflow/internal/omp"

func BuildFigure2(body func(string) func()) {
	p := omp.NewParallel(0)
	defer p.Close()
	p.Single(func(s *omp.Scope) {
		s.Task(body("a0"), omp.Out("a0_a1"))
		s.Task(body("b0"), omp.Out("b0_b1"))
		s.Task(body("a1"), omp.In("a0_a1"), omp.Out("a1_a2", "a1_b2"))
		s.Task(body("b1"), omp.In("b0_b1"), omp.Out("b1_b2", "b1_a2"))
		s.Task(body("a2"), omp.In("a1_a2", "b1_a2"), omp.Out("a2_a3"))
		s.Task(body("b2"), omp.In("a1_b2", "b1_b2"), omp.Out("b2_a3"))
		s.Task(body("a3"), omp.In("a2_a3", "b2_a3"))
	})
}
`

// figure2TBB is the paper's Listing 5 translated to the flowgraph model:
// explicit node objects, explicit edges, and explicit source try_puts.
const figure2TBB = `package snippet

import fg "gotaskflow/internal/flowgraph"

func BuildFigure2(body func(string) func()) {
	g := fg.NewGraph(0)
	defer g.Close()
	wrap := func(name string) func(fg.ContinueMsg) {
		fn := body(name)
		return func(fg.ContinueMsg) { fn() }
	}
	a0 := fg.NewContinueNode(g, wrap("a0"))
	a1 := fg.NewContinueNode(g, wrap("a1"))
	a2 := fg.NewContinueNode(g, wrap("a2"))
	a3 := fg.NewContinueNode(g, wrap("a3"))
	b0 := fg.NewContinueNode(g, wrap("b0"))
	b1 := fg.NewContinueNode(g, wrap("b1"))
	b2 := fg.NewContinueNode(g, wrap("b2"))
	fg.MakeEdge(a0, a1)
	fg.MakeEdge(a1, a2)
	fg.MakeEdge(a1, b2)
	fg.MakeEdge(a2, a3)
	fg.MakeEdge(b0, b1)
	fg.MakeEdge(b1, b2)
	fg.MakeEdge(b1, a2)
	fg.MakeEdge(b2, a3)
	a0.TryPut(fg.ContinueMsg{})
	b0.TryPut(fg.ContinueMsg{})
	g.WaitForAll()
}
`

// figure4Taskflow is the paper's Listing 7: dynamic tasking through the
// unified Subflow interface.
const figure4Taskflow = `package snippet

import "gotaskflow/internal/core"

func BuildFigure4(body func(string) func()) {
	tf := core.New(0)
	defer tf.Close()
	ts := tf.Emplace(body("A"), body("C"), body("D"))
	A, C, D := ts[0], ts[1], ts[2]
	B := tf.EmplaceSubflow(func(sf *core.Subflow) {
		body("B")()
		bs := sf.Emplace(body("B1"), body("B2"), body("B3"))
		bs[0].Precede(bs[2])
		bs[1].Precede(bs[2])
	})
	A.Precede(B, C)
	B.Precede(D)
	C.Precede(D)
	tf.WaitForAll()
}
`

// figure4TBB is the paper's Listing 8: TBB needs a separate inner graph
// object created and drained inside the node body.
const figure4TBB = `package snippet

import fg "gotaskflow/internal/flowgraph"

func BuildFigure4(body func(string) func()) {
	G := fg.NewGraph(0)
	defer G.Close()
	wrap := func(name string) func(fg.ContinueMsg) {
		fn := body(name)
		return func(fg.ContinueMsg) { fn() }
	}
	A := fg.NewContinueNode(G, wrap("A"))
	C := fg.NewContinueNode(G, wrap("C"))
	D := fg.NewContinueNode(G, wrap("D"))
	B := fg.NewContinueNode(G, func(fg.ContinueMsg) {
		body("B")()
		sub := fg.NewGraph(0)
		defer sub.Close()
		b1 := fg.NewContinueNode(sub, wrap("B1"))
		b2 := fg.NewContinueNode(sub, wrap("B2"))
		b3 := fg.NewContinueNode(sub, wrap("B3"))
		fg.MakeEdge(b1, b3)
		fg.MakeEdge(b2, b3)
		b1.TryPut(fg.ContinueMsg{})
		b2.TryPut(fg.ContinueMsg{})
		sub.WaitForAll()
	})
	fg.MakeEdge(A, B)
	fg.MakeEdge(A, C)
	fg.MakeEdge(B, D)
	fg.MakeEdge(C, D)
	A.TryPut(fg.ContinueMsg{})
	G.WaitForAll()
}
`

// Static returns the Figure-2 snippets in paper order (Listings 3, 4, 5).
func Static() []Listing {
	return []Listing{
		{Name: "Cpp-Taskflow", Figure: "Figure 2", Source: figure2Taskflow},
		{Name: "OpenMP", Figure: "Figure 2", Source: figure2OpenMP},
		{Name: "TBB", Figure: "Figure 2", Source: figure2TBB},
	}
}

// Dynamic returns the Figure-4 snippets (Listings 7 and 8).
func Dynamic() []Listing {
	return []Listing{
		{Name: "Cpp-Taskflow", Figure: "Figure 4", Source: figure4Taskflow},
		{Name: "TBB", Figure: "Figure 4", Source: figure4TBB},
	}
}
