// Package linalg provides the small dense/sparse linear-algebra kernel the
// gradient-descent operators are built on. It is deliberately minimal: the
// paper's workloads only need dot products, scaled additions (axpy), norms and
// elementwise updates over dense model vectors and sparse feature vectors.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Zero sets every component of v to 0 in place.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the inner product of v and w. It panics if dimensions differ.
// The loop is the shared 4-wide single-accumulator kernel (see block.go), so
// the summation order — and with it every bit of the result — matches the
// naive loop.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	return dotContig(v, w)
}

// AddScaled adds alpha*w to v in place (the BLAS axpy kernel), 4-wide
// unrolled. Each component is written independently, so unrolling cannot
// change any result bit.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled dimension mismatch %d vs %d", len(v), len(w)))
	}
	w = w[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] += alpha * w[i]
		v[i+1] += alpha * w[i+1]
		v[i+2] += alpha * w[i+2]
		v[i+3] += alpha * w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += alpha * w[i]
	}
}

// Add adds w to v in place.
func (v Vector) Add(w Vector) { v.AddScaled(1, w) }

// Sub subtracts w from v in place.
func (v Vector) Sub(w Vector) { v.AddScaled(-1, w) }

// Scale multiplies every component of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Norm2 returns the Euclidean (L2) norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the max-absolute-value norm of v.
func (v Vector) NormInf() float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// DistL2 returns the Euclidean distance between v and w.
func (v Vector) DistL2(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: DistL2 dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// DistL1 returns the L1 distance between v and w. The paper's Converge
// operator (Listing 5) uses exactly this delta between successive weight
// vectors.
func (v Vector) DistL1(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: DistL1 dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += math.Abs(x - w[i])
	}
	return s
}

// Equal reports whether v and w are elementwise within tol of each other.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component of v is finite (no NaN/Inf).
// Branch-free and exact: x-x is 0 for every finite x and NaN for ±Inf and
// NaN, and a NaN term makes the whole sum NaN.
func (v Vector) IsFinite() bool {
	var s float64
	for _, x := range v {
		s += x - x
	}
	return s == 0
}
