// Package matrix provides the dense float64 kernels the DNN experiment of
// the Cpp-Taskflow paper needs (Section IV-C). The paper encapsulates all
// matrix operations in standalone Eigen-3.3.7 calls; this package is the
// stdlib substitute. Operations are single-threaded on purpose — the
// experiment measures the tasking layer's ability to exploit coarse-grained
// parallelism across operations, not intra-operation parallelism.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Randn returns a matrix with N(0, std) entries from a seeded generator.
func Randn(rows, cols int, std float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// at returns m[i,j].
func (m *Matrix) at(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m (shapes must match).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(shapeErr("CopyFrom", m, src))
	}
	copy(m.Data, src.Data)
}

// zero clears all entries.
func (m *Matrix) zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func shapeErr(op string, a, b *Matrix) string {
	return fmt.Sprintf("matrix: %s shape mismatch (%dx%d vs %dx%d)", op, a.Rows, a.Cols, b.Rows, b.Cols)
}

// MulTo computes dst = a·b. dst must be preallocated with shape
// (a.Rows × b.Cols) and must not alias a or b. The i-k-j loop order keeps
// the inner loop streaming over contiguous rows.
func MulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulTo shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
}

// MulATBTo computes dst = aᵀ·b without materializing the transpose.
func MulATBTo(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulATBTo shapes %dx%d ᵀ· %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.zero()
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i, aval := range arow {
			if aval == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := range brow {
				drow[j] += aval * brow[j]
			}
		}
	}
}

// MulABTTo computes dst = a·bᵀ without materializing the transpose.
func MulABTTo(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulABTTo shapes %dx%d · %dx%dᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k := range arow {
				s += arow[k] * brow[k]
			}
			drow[j] = s
		}
	}
}

// AddScaled computes m += alpha·g (the SGD update kernel).
func (m *Matrix) AddScaled(alpha float64, g *Matrix) {
	if m.Rows != g.Rows || m.Cols != g.Cols {
		panic(shapeErr("AddScaled", m, g))
	}
	for i := range m.Data {
		m.Data[i] += alpha * g.Data[i]
	}
}

// AddRowVec adds the 1×Cols row vector b to every row of m.
func (m *Matrix) AddRowVec(b *Matrix) {
	if b.Rows != 1 || b.Cols != m.Cols {
		panic(shapeErr("AddRowVec", m, b))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += b.Data[j]
		}
	}
}

// ColSumTo computes the 1×Cols column sums of m into dst.
func ColSumTo(dst, m *Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(shapeErr("ColSumTo", dst, m))
	}
	dst.zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			dst.Data[j] += row[j]
		}
	}
}

// Sigmoid applies the logistic function elementwise in place.
func (m *Matrix) Sigmoid() {
	for i, v := range m.Data {
		m.Data[i] = 1 / (1 + math.Exp(-v))
	}
}

// SigmoidGradFrom computes m[i] *= a[i]·(1-a[i]) where a holds sigmoid
// activations — the backprop Hadamard with σ'(z) expressed via σ(z).
func (m *Matrix) SigmoidGradFrom(a *Matrix) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic(shapeErr("SigmoidGradFrom", m, a))
	}
	for i, av := range a.Data {
		m.Data[i] *= av * (1 - av)
	}
}

// SoftmaxRows applies a numerically stable softmax to every row in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// CrossEntropy returns the mean cross-entropy of softmax probabilities
// against one-hot labels.
func CrossEntropy(probs *Matrix, labels []uint8) float64 {
	var loss float64
	for i := 0; i < probs.Rows; i++ {
		p := probs.at(i, int(labels[i]))
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
	}
	return loss / float64(probs.Rows)
}

// SoftmaxCrossEntropyGrad overwrites m (softmax probabilities) with the
// batch-mean gradient of the cross-entropy loss: (p - onehot) / batch.
func (m *Matrix) SoftmaxCrossEntropyGrad(labels []uint8) {
	inv := 1 / float64(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		row[labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
}

// Equal reports elementwise equality within eps.
func Equal(a, b *Matrix, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > eps {
			return false
		}
	}
	return true
}
