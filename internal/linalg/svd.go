// Package linalg implements the dense linear algebra GENESIS needs to
// separate network layers: singular value decomposition (one-sided Jacobi),
// rank-k truncation, tensor matricization, and the Tucker decomposition via
// higher-order orthogonal iteration (HOOI), following De Lathauwer et al.
package linalg

import (
	"math"

	"repro/internal/tensor"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * V^T,
// with U of shape (m,r), S of length r, and V of shape (n,r), where
// r = min(m,n). Singular values are sorted in descending order.
type SVD struct {
	U *tensor.Tensor
	S []float64
	V *tensor.Tensor
}

// jacobiSweeps bounds the number of full sweeps of the one-sided Jacobi
// iteration; convergence is typically reached far earlier.
const jacobiSweeps = 60

// jacobiTol is the relative off-diagonal tolerance for convergence.
const jacobiTol = 1e-12

// Decompose computes the thin SVD of a 2-D tensor using one-sided Jacobi
// rotations. One-sided Jacobi orthogonalizes the columns of a working copy
// of A while accumulating the rotations into V; the column norms become the
// singular values and the normalized columns become U.
func Decompose(a *tensor.Tensor) SVD {
	if a.Dims() != 2 {
		panic("linalg: Decompose requires a 2-D tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	transposed := false
	work := a.Clone()
	if m < n {
		// One-sided Jacobi wants tall matrices; decompose A^T and swap U/V.
		work = tensor.Transpose(work)
		m, n = n, m
		transposed = true
	}

	// cols[j] is column j of the working matrix (length m).
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		cols[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			cols[j][i] = work.At(i, j)
		}
	}
	// v accumulates right rotations; starts as identity (n×n).
	v := tensor.New(n, n)
	for i := 0; i < n; i++ {
		v.Set(1, i, i)
	}

	for sweep := 0; sweep < jacobiSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha, beta, gamma := 0.0, 0.0, 0.0
				cp, cq := cols[p], cols[q]
				for i := 0; i < m; i++ {
					alpha += cp[i] * cp[i]
					beta += cq[i] * cq[i]
					gamma += cp[i] * cq[i]
				}
				if math.Abs(gamma) > jacobiTol*math.Sqrt(alpha*beta) {
					converged = false
					// Compute the Jacobi rotation that zeroes gamma.
					zeta := (beta - alpha) / (2 * gamma)
					t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					for i := 0; i < m; i++ {
						tmp := cp[i]
						cp[i] = c*tmp - s*cq[i]
						cq[i] = s*tmp + c*cq[i]
					}
					for i := 0; i < n; i++ {
						tmp := v.At(i, p)
						v.Set(c*tmp-s*v.At(i, q), i, p)
						v.Set(s*tmp+c*v.At(i, q), i, q)
					}
				}
			}
		}
		if converged {
			break
		}
	}

	// Extract singular values and left vectors.
	s := make([]float64, n)
	u := tensor.New(m, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm += cols[j][i] * cols[j][i]
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Set(cols[j][i]/norm, i, j)
			}
		}
	}

	// Sort by descending singular value (simple selection sort; n is small).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sortedS := make([]float64, n)
	sortedU := tensor.New(m, n)
	sortedV := tensor.New(n, n)
	for newJ, oldJ := range order {
		sortedS[newJ] = s[oldJ]
		for i := 0; i < m; i++ {
			sortedU.Set(u.At(i, oldJ), i, newJ)
		}
		for i := 0; i < n; i++ {
			sortedV.Set(v.At(i, oldJ), i, newJ)
		}
	}

	if transposed {
		return SVD{U: sortedV, S: sortedS, V: sortedU}
	}
	return SVD{U: sortedU, S: sortedS, V: sortedV}
}

// Reconstruct returns U * diag(S) * V^T.
func (d SVD) Reconstruct() *tensor.Tensor {
	r := len(d.S)
	us := d.U.Clone()
	for i := 0; i < us.Dim(0); i++ {
		for j := 0; j < r; j++ {
			us.Set(us.At(i, j)*d.S[j], i, j)
		}
	}
	return tensor.MatMul(us, tensor.Transpose(d.V))
}

// Truncate keeps only the top-k singular triplets.
func (d SVD) Truncate(k int) SVD {
	if k >= len(d.S) {
		return d
	}
	m, n := d.U.Dim(0), d.V.Dim(0)
	u := tensor.New(m, k)
	v := tensor.New(n, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			u.Set(d.U.At(i, j), i, j)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			v.Set(d.V.At(i, j), i, j)
		}
	}
	return SVD{U: u, S: append([]float64(nil), d.S[:k]...), V: v}
}

// LowRankFactors returns matrices (A1, A2) with A ≈ A1*A2, where A1 is
// (m,k) and A2 is (k,n). This is the "separation" GENESIS applies to
// fully-connected layers: an m×n layer becomes m×k followed by k×n.
// The singular values are split evenly (sqrt) across the two factors to
// balance their dynamic ranges for later quantization.
func (d SVD) LowRankFactors(k int) (*tensor.Tensor, *tensor.Tensor) {
	t := d.Truncate(k)
	m, n := t.U.Dim(0), t.V.Dim(0)
	a1 := tensor.New(m, k)
	a2 := tensor.New(k, n)
	for j := 0; j < k; j++ {
		root := math.Sqrt(t.S[j])
		for i := 0; i < m; i++ {
			a1.Set(t.U.At(i, j)*root, i, j)
		}
		for i := 0; i < n; i++ {
			a2.Set(t.V.At(i, j)*root, j, i)
		}
	}
	return a1, a2
}
