// Package tensor provides the dense and sparse numeric containers shared by
// the DNN library, the GENESIS compression tool, and the device runtimes.
//
// Dense tensors are float64-backed, row-major, with an arbitrary number of
// dimensions. Sparse matrices use compressed sparse row (CSR) storage, the
// layout SONIC's sparse fully-connected kernels consume on-device.
package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Tensor is a dense row-major tensor of float64 values.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; its length must equal the shape's volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible in the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// offset converts a multi-index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong arity for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume. The view
// shares storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandNormal fills t with Gaussian noise of the given standard deviation.
func (t *Tensor) RandNormal(rng *rand.Rand, stddev float64) {
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
}

// AddScaled accumulates alpha*src into t elementwise.
func (t *Tensor) AddScaled(alpha float64, src *Tensor) {
	if len(src.data) != len(t.data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range src.data {
		t.data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Argmax returns the flat index of the largest element.
func (t *Tensor) Argmax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// CountNonzero returns the number of elements with |v| > eps.
func (t *Tensor) CountNonzero(eps float64) int {
	n := 0
	for _, v := range t.data {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}

// Equal reports whether two tensors have identical shape and elementwise
// values within tol.
func Equal(a, b *Tensor, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MatMul returns a*b for 2-D tensors of shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatVec returns a*x for a 2-D tensor a of shape (m,n) and a vector x of
// length n.
func MatVec(a *Tensor, x []float64) []float64 {
	if a.Dims() != 2 || a.Dim(1) != len(x) {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch %v x len %d", a.shape, len(x)))
	}
	m, n := a.Dim(0), a.Dim(1)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic("tensor: Transpose requires 2-D tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}
