package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Fast-tier kernel tests: each fast kernel against its exact counterpart
// within the reassociation tolerance, with the tail and edge geometries the
// engine sweep cannot isolate — lengths not divisible by the accumulator
// width or the unroll, empty rows, and the ExpFast accuracy contract over the
// full non-flushed input range.

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

// TestDotFastMatchesExact sweeps every tail geometry of the 8-wide/4-
// accumulator loop: lengths 0 through 33 cover empty, sub-unroll, and every
// remainder mod 8.
func TestDotFastMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= 33; n++ {
		a, b := randVec(r, n), randVec(r, n)
		exact := a.Dot(b)
		fast := a.DotFast(b)
		if d := fastRelDiff(exact, fast); d > kernelEps {
			t.Fatalf("n=%d: exact %g fast %g (rel err %.3g)", n, exact, fast, d)
		}
	}
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

// TestSparseDotFastMatches covers the sparse fast dot against SparseDot,
// including empty rows, nnz not divisible by the 4-wide unroll, and rows
// whose index tail reaches at or past the model dimension (both kernels must
// sum exactly the in-range prefix). Indices are normalized through SortDedup,
// the same rule every arena row satisfies.
func TestSparseDotFastMatches(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const d = 20
	w := randVec(r, d)
	for _, nnz := range []int{0, 1, 2, 3, 5, 9, 17} {
		for _, overflow := range []int{0, 1, 3} { // entries indexed >= d
			idx := make([]int32, 0, nnz+overflow)
			vals := make([]float64, 0, nnz+overflow)
			perm := r.Perm(d)
			for _, p := range perm[:nnz] {
				idx = append(idx, int32(p))
				vals = append(vals, r.NormFloat64())
			}
			for k := 0; k < overflow; k++ {
				idx = append(idx, int32(d+k))
				vals = append(vals, r.NormFloat64())
			}
			n, err := SortDedup(idx, vals)
			if err != nil {
				t.Fatal(err)
			}
			idx, vals = idx[:n], vals[:n]
			exact := SparseDot(idx, vals, w)
			fast := SparseDotFast(idx, vals, w)
			if diff := fastRelDiff(exact, fast); diff > kernelEps {
				t.Fatalf("nnz=%d overflow=%d: exact %g fast %g", nnz, overflow, exact, fast)
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

// expFastBound is the documented ExpFast accuracy contract: maximum relative
// error against math.Exp below 2e-8 over the whole non-flushed input range.
const expFastBound = 2e-8

// TestExpFastMaxRelError sweeps the full non-flushed range with a step fine
// enough to cross every range-reduction bucket (k changes every ln2 ≈ 0.69)
// thousands of times, verifying the documented bound.
func TestExpFastMaxRelError(t *testing.T) {
	var worst, worstX float64
	for x := -708.0; x <= 709.0; x += 0.0005 {
		want := math.Exp(x)
		got := ExpFast(x)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst, worstX = rel, x
		}
	}
	if worst > expFastBound {
		t.Fatalf("max rel error %.3g at x=%g exceeds bound %.3g", worst, worstX, expFastBound)
	}
	t.Logf("max rel error %.3g at x=%g", worst, worstX)
}

// TestExpFastEdges pins the out-of-range contract: overflow to +Inf,
// underflow (including the denormal output range) flushed to zero, NaN
// passthrough, and exactness at zero and denormal inputs.
func TestExpFastEdges(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{710, math.Inf(1)},
		{1e9, math.Inf(1)},
		{-1e9, 0},
		{-720, 0},   // denormal output range: flushed to zero by contract
		{-745.2, 0}, // below the smallest denormal either way
		{5e-324, 1}, // denormal input: e^x rounds to exactly 1
	}
	for _, c := range cases {
		got := ExpFast(c.x)
		if got != c.want {
			t.Fatalf("ExpFast(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := ExpFast(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("ExpFast(NaN) = %g, want NaN", got)
	}
	// Huge-but-finite margins just inside the thresholds stay finite/nonzero.
	if got := ExpFast(709.7); math.IsInf(got, 1) {
		t.Fatalf("ExpFast(709.7) overflowed; math.Exp gives %g", math.Exp(709.7))
	}
	if got := ExpFast(-708.3); got == 0 {
		t.Fatalf("ExpFast(-708.3) flushed; math.Exp gives %g", math.Exp(-708.3))
	}
}
