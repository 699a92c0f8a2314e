package core

import (
	"strings"
	"testing"
)

func TestDumpPresentGraph(t *testing.T) {
	tf := New(1).SetName("demo")
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {}, func() {})
	A, B, C := ts[0].Name("A"), ts[1].Name("B"), ts[2].Name("C")
	A.Precede(B, C)
	var sb strings.Builder
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`digraph "demo"`,
		`"A";`, `"B";`, `"C";`,
		`"A" -> "B";`, `"A" -> "C";`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	tf.WaitForAll()
}

func TestDumpUnnamedNodesGetStableIDs(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {})
	ts[0].Precede(ts[1])
	var sb strings.Builder
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"p0x0" -> "p0x1";`) {
		t.Fatalf("expected synthesized ids in dump:\n%s", out)
	}
	tf.WaitForAll()
}

func TestDumpDuplicateNamesDisambiguated(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {})
	ts[0].Name("same")
	ts[1].Name("same")
	ts[0].Precede(ts[1])
	var sb strings.Builder
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"same"`) || !strings.Contains(out, `"same_1"`) {
		t.Fatalf("duplicate names not disambiguated:\n%s", out)
	}
	tf.WaitForAll()

	// The renamed duplicate must not take a name a user already gave: x,
	// x_2, x is three nodes and a chain, not two nodes and a self-loop.
	ts = tf.Emplace(func() {}, func() {}, func() {})
	ts[0].Name("x").Precede(ts[1].Name("x_2"))
	ts[1].Precede(ts[2].Name("x"))
	sb.Reset()
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{`"x";`, `"x_2";`, `"x_3";`, `"x" -> "x_2";`, `"x_2" -> "x_3";`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	tf.WaitForAll()
}

func TestDumpTopologiesWithSubflow(t *testing.T) {
	// Paper Figure 5: nested subflows appear as clusters after execution.
	tf := New(2).SetName("nested")
	defer tf.Close()
	A := tf.EmplaceSubflow(func(sf *Subflow) {
		A1 := sf.Emplace1(func() {}).Name("A1")
		A2 := sf.EmplaceSubflow(func(sf2 *Subflow) {
			inner := sf2.Emplace(func() {}, func() {})
			inner[0].Name("A2_1").Precede(inner[1].Name("A2_2"))
		}).Name("A2")
		A1.Precede(A2)
	}).Name("A")
	B := tf.Emplace1(func() {}).Name("B")
	A.Precede(B)

	f := tf.Dispatch()
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tf.DumpTopologies(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`subgraph "cluster_A"`,
		`label = "Subflow_A";`,
		`subgraph "cluster_A2"`,
		`label = "Subflow_A2";`,
		`"A1" -> "A2";`,
		`"A2_1" -> "A2_2";`,
		`"A" -> "B";`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("topology dump missing %q:\n%s", want, out)
		}
	}
	tf.WaitForAll()
}

func TestDumpDetachedSubflowNoJoinEdges(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	A := tf.EmplaceSubflow(func(sf *Subflow) {
		sf.Emplace1(func() {}).Name("child")
		sf.Detach()
	}).Name("A")
	B := tf.Emplace1(func() {}).Name("B")
	A.Precede(B)
	f := tf.Dispatch()
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tf.DumpTopologies(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `"child" -> "B" [style=dashed];`) {
		t.Fatalf("detached subflow must not draw join edges:\n%s", out)
	}
	if !strings.Contains(out, `subgraph "cluster_A"`) {
		t.Fatalf("detached subflow cluster missing:\n%s", out)
	}
	tf.WaitForAll()
}

func TestDumpJoinedSubflowDrawsJoinEdges(t *testing.T) {
	tf := New(2)
	defer tf.Close()
	A := tf.EmplaceSubflow(func(sf *Subflow) {
		sf.Emplace1(func() {}).Name("child")
	}).Name("A")
	B := tf.Emplace1(func() {}).Name("B")
	A.Precede(B)
	f := tf.Dispatch()
	if err := f.Get(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tf.DumpTopologies(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"child" -> "B" [style=dashed];`) {
		t.Fatalf("joined subflow should draw join edge:\n%s", sb.String())
	}
	tf.WaitForAll()
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 10 {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestDumpPropagatesWriterError(t *testing.T) {
	tf := New(1)
	defer tf.Close()
	ts := tf.Emplace(func() {}, func() {}, func() {}, func() {})
	ts[0].Precede(ts[1], ts[2], ts[3])
	if err := tf.Dump(&failingWriter{}); err == nil {
		t.Fatal("Dump ignored writer error")
	}
	tf.WaitForAll()
}
