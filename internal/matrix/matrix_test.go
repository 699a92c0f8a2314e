package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func naiveMul(a, b *Matrix) *Matrix {
	d := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.at(i, k) * b.at(k, j)
			}
			d.Set(i, j, s)
		}
	}
	return d
}

func fill(m *Matrix, seed int64) *Matrix {
	x := uint64(seed)*2654435761 + 1
	for i := range m.Data {
		x = x*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(int64(x>>33))/float64(1<<30) - 1
	}
	return m
}

func TestMulToMatchesNaive(t *testing.T) {
	a := fill(New(7, 5), 1)
	b := fill(New(5, 9), 2)
	d := New(7, 9)
	MulTo(d, a, b)
	if !Equal(d, naiveMul(a, b), 1e-12) {
		t.Fatal("MulTo != naive")
	}
}

func TestQuickMulAgainstNaive(t *testing.T) {
	f := func(r1, c1, c2 uint8, seed int64) bool {
		m, k, n := int(r1%8)+1, int(c1%8)+1, int(c2%8)+1
		a := fill(New(m, k), seed)
		b := fill(New(k, n), seed+1)
		d := New(m, n)
		MulTo(d, a, b)
		return Equal(d, naiveMul(a, b), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMulATB(t *testing.T) {
	a := fill(New(6, 4), 3) // aᵀ is 4x6
	b := fill(New(6, 5), 4)
	d := New(4, 5)
	MulATBTo(d, a, b)
	at := New(4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.at(i, j))
		}
	}
	if !Equal(d, naiveMul(at, b), 1e-12) {
		t.Fatal("MulATBTo != naive(aᵀ·b)")
	}
}

func TestMulABT(t *testing.T) {
	a := fill(New(6, 4), 5)
	b := fill(New(7, 4), 6) // bᵀ is 4x7
	d := New(6, 7)
	MulABTTo(d, a, b)
	bt := New(4, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			bt.Set(j, i, b.at(i, j))
		}
	}
	if !Equal(d, naiveMul(a, bt), 1e-12) {
		t.Fatal("MulABTTo != naive(a·bᵀ)")
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulTo(New(2, 2), New(2, 3), New(2, 2)) },
		func() { MulATBTo(New(2, 2), New(3, 2), New(4, 2)) },
		func() { MulABTTo(New(2, 2), New(2, 3), New(2, 4)) },
		func() { New(2, 2).AddScaled(1, New(3, 2)) },
		func() { New(2, 2).AddRowVec(New(1, 3)) },
		func() { ColSumTo(New(1, 3), New(2, 2)) },
		func() { New(2, 2).SigmoidGradFrom(New(2, 3)) },
		func() { New(2, 2).CopyFrom(New(2, 3)) },
		func() { New(-1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAddScaled(t *testing.T) {
	m := fill(New(3, 3), 7)
	g := fill(New(3, 3), 8)
	want := New(3, 3)
	for i := range want.Data {
		want.Data[i] = m.Data[i] - 0.5*g.Data[i]
	}
	m.AddScaled(-0.5, g)
	if !Equal(m, want, 1e-15) {
		t.Fatal("AddScaled wrong")
	}
}

func TestAddRowVecAndColSum(t *testing.T) {
	m := New(3, 2)
	b := New(1, 2)
	b.Data[0], b.Data[1] = 10, 20
	m.AddRowVec(b)
	for i := 0; i < 3; i++ {
		if m.at(i, 0) != 10 || m.at(i, 1) != 20 {
			t.Fatal("AddRowVec wrong")
		}
	}
	s := New(1, 2)
	ColSumTo(s, m)
	if s.Data[0] != 30 || s.Data[1] != 60 {
		t.Fatalf("ColSumTo = %v", s.Data)
	}
}

func TestSigmoid(t *testing.T) {
	m := New(1, 3)
	m.Data = []float64{0, 100, -100}
	m.Sigmoid()
	if math.Abs(m.Data[0]-0.5) > 1e-12 || m.Data[1] < 0.999 || m.Data[2] > 0.001 {
		t.Fatalf("Sigmoid = %v", m.Data)
	}
}

func TestSigmoidGradFrom(t *testing.T) {
	a := New(1, 2)
	a.Data = []float64{0.5, 0.9}
	d := New(1, 2)
	d.Data = []float64{2, 2}
	d.SigmoidGradFrom(a)
	if math.Abs(d.Data[0]-2*0.25) > 1e-12 || math.Abs(d.Data[1]-2*0.09) > 1e-12 {
		t.Fatalf("SigmoidGradFrom = %v", d.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := New(2, 3)
	m.Data = []float64{1, 2, 3, 1000, 1000, 1000}
	m.SoftmaxRows()
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := m.at(i, j)
			if v <= 0 || v >= 1.0000001 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if !(m.at(0, 2) > m.at(0, 1) && m.at(0, 1) > m.at(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	if math.Abs(m.at(1, 0)-1.0/3) > 1e-12 {
		t.Fatal("uniform row not uniform after softmax")
	}
}

// Property: softmax rows always sum to 1, even for extreme inputs.
func TestQuickSoftmaxNormalized(t *testing.T) {
	f := func(vals [6]int32) bool {
		m := New(2, 3)
		for i, v := range vals {
			m.Data[i] = float64(v) / 1000
		}
		m.SoftmaxRows()
		for i := 0; i < 2; i++ {
			var sum float64
			for j := 0; j < 3; j++ {
				sum += m.at(i, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntropyAndGrad(t *testing.T) {
	p := New(2, 3)
	p.Data = []float64{0.7, 0.2, 0.1, 0.1, 0.8, 0.1}
	labels := []uint8{0, 1}
	loss := CrossEntropy(p, labels)
	want := -(math.Log(0.7) + math.Log(0.8)) / 2
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("CrossEntropy = %v, want %v", loss, want)
	}
	g := p.Clone()
	g.SoftmaxCrossEntropyGrad(labels)
	if math.Abs(g.at(0, 0)-(0.7-1)/2) > 1e-12 {
		t.Fatalf("grad[0,0] = %v", g.at(0, 0))
	}
	if math.Abs(g.at(1, 2)-0.1/2) > 1e-12 {
		t.Fatalf("grad[1,2] = %v", g.at(1, 2))
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(4, 4, 0.1, 42)
	b := Randn(4, 4, 0.1, 42)
	if !Equal(a, b, 0) {
		t.Fatal("Randn not deterministic")
	}
	c := Randn(4, 4, 0.1, 43)
	if Equal(a, c, 0) {
		t.Fatal("Randn ignores seed")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := fill(New(2, 2), 1)
	b := a.Clone()
	b.Data[0] = 999
	if a.Data[0] == 999 {
		t.Fatal("Clone shares storage")
	}
	a.CopyFrom(b)
	if a.Data[0] != 999 {
		t.Fatal("CopyFrom failed")
	}
}
