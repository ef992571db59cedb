package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Fast-tier kernel tests: each fast kernel against its exact counterpart
// within the reassociation tolerance, with the tail and edge geometries the
// engine sweep cannot isolate — lengths not divisible by the accumulator
// width or the unroll, and empty rows.

// kernelEps bounds fast-vs-exact kernel disagreement: pure reassociation of
// at most a few dozen adds of O(10) terms stays far under 1e-12 relative.
const kernelEps = 1e-12

func fastRelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randVec(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

// TestDenseMarginsFastMatches checks the blocked dense margin kernel over
// row counts and dimensions not divisible by the accumulator width.
func TestDenseMarginsFastMatches(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, rows := range []int{0, 1, 3, 5, 13} {
		for _, d := range []int{1, 7, 24} {
			vals := randVec(r, rows*d)
			w := randVec(r, d)
			exact := make([]float64, rows)
			fast := make([]float64, rows)
			DenseMargins(vals, d, w, exact)
			DenseMarginsFast(vals, d, w, fast)
			for j := range exact {
				if diff := fastRelDiff(exact[j], fast[j]); diff > kernelEps {
					t.Fatalf("rows=%d d=%d row %d: exact %g fast %g", rows, d, j, exact[j], fast[j])
				}
			}
		}
	}
}

// TestCSRMarginsFastZeroRows pins the zero-row-block edge: a CSR block whose
// offsets contain empty rows (lo == hi) must produce zero margins on both
// tiers, with no index panics from the tail-trimming loop.
func TestCSRMarginsFastZeroRows(t *testing.T) {
	w := Vector{1, 2, 3}
	// rows: empty, {0:2}, empty, empty, {1:5, 2:-1}, empty
	offs := []int64{0, 0, 1, 1, 1, 3, 3}
	idx := []int32{0, 1, 2}
	vals := []float64{2, 5, -1}
	exact := make([]float64, 6)
	fast := make([]float64, 6)
	CSRMargins(offs, idx, vals, w, exact)
	CSRMarginsFast(offs, idx, vals, w, fast)
	for j := range exact {
		if exact[j] != fast[j] {
			t.Fatalf("row %d: exact %g fast %g", j, exact[j], fast[j])
		}
	}
	want := []float64{0, 2, 0, 0, 7, 0}
	for j, v := range want {
		if exact[j] != v {
			t.Fatalf("row %d: margin %g, want %g", j, exact[j], v)
		}
	}
}

// TestDenseAccumFastMatches checks the fused four-row axpy against a per-row
// AddScaled sequence over every tail geometry mod 4, with zero coefficients
// interleaved (an exactly-fit least-squares row still runs its axpy).
func TestDenseAccumFastMatches(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 9, 13} {
		for _, d := range []int{1, 5, 24} {
			vals := randVec(r, rows*d)
			coeffs := make([]float64, rows)
			for j := range coeffs {
				if j%3 == 0 {
					coeffs[j] = 0
				} else {
					coeffs[j] = r.NormFloat64()
				}
			}
			exact := randVec(r, d)
			fast := append(Vector(nil), exact...)
			for j := 0; j < rows; j++ {
				exact.AddScaled(coeffs[j], vals[j*d:(j+1)*d])
			}
			DenseAccumFast(fast, vals, d, coeffs)
			for i := range exact {
				if diff := fastRelDiff(exact[i], fast[i]); diff > kernelEps {
					t.Fatalf("rows=%d d=%d elem %d: exact %g fast %g", rows, d, i, exact[i], fast[i])
				}
			}
		}
	}
}
