package linalg

import "fmt"

// Block kernels: the margin (dot-product) and accumulate (axpy) passes of
// the batched execution layer. A block is a run of rows handed to one fused
// kernel call, so the per-row costs the row-at-a-time path pays — interface
// dispatch, Row view construction, repeated bounds checks on the model
// vector — are paid once per block instead. Every kernel keeps one running
// sum per row (per gradient slot, for the accumulate) in index (row) order —
// the canonical dotContig/SparseDot/AddScaled loops — which makes the
// results bitwise identical to calling Dot/SparseDot/AddScaled row by row;
// that equivalence is what lets the engine switch between the blocked and
// per-row paths freely (see gradients.BlockGradient and the engine's block
// property test). With the SIMD backend on, every kernel here runs its
// AVX2 twin, where a vector lane is a row (or a slot) and each step is a
// multiply then an add, so the bits stay those of the Go loops, which
// remain the portable path and the tests' oracle. The tolerance-bounded
// fast-tier variants live in fast.go.

// DenseMargins computes out[j] = <vals[j*stride:(j+1)*stride], w> for every
// row j of a contiguous strided dense block. len(w) must equal stride (the
// same dimension contract Vector.Dot enforces); out must have one slot per
// row. Bitwise identical to per-row Vector.Dot.
func DenseMargins(vals []float64, stride int, w Vector, out []float64) {
	if len(w) != stride {
		panic(fmt.Sprintf("linalg: DenseMargins dimension mismatch %d vs %d", stride, len(w)))
	}
	j := 0
	if simdOn && stride > 0 && len(out) >= 4 {
		j = len(out) &^ 3
		_ = vals[j*stride-1] // one bounds proof for the four-row groups
		denseMarginsExactSIMD(vals, stride, w, out[:j])
	}
	for ; j < len(out); j++ {
		row := vals[j*stride : (j+1)*stride : (j+1)*stride]
		out[j] = dotContig(row, w)
	}
}

// DenseAccum is the exact fused block axpy: for each row j in order,
//
//	grad[i] += coeffs[j] · vals[j·stride+i]
//
// bitwise identical to grad.AddScaled(coeffs[j], row j) for j = 0, 1, ….
// The SIMD twin walks the gradient once per four rows and adds their terms
// to each slot in row order. len(grad) must equal stride; coeffs has one
// entry per row, and every row takes part, whatever its coefficient.
func DenseAccum(grad Vector, vals []float64, stride int, coeffs []float64) {
	if len(grad) != stride {
		panic(fmt.Sprintf("linalg: DenseAccum dimension mismatch %d vs %d", stride, len(grad)))
	}
	if simdOn && stride > 0 && len(coeffs) > 0 {
		_ = vals[len(coeffs)*stride-1] // one bounds proof for the whole block
		denseAccumExactSIMD(grad, vals, stride, coeffs)
		return
	}
	for j, c := range coeffs {
		grad.AddScaled(c, vals[j*stride:(j+1)*stride])
	}
}

// CSRMargins computes out[j] = SparseDot(row j) for a contiguous CSR block:
// offs holds len(out)+1 absolute offsets into the shared indices/values
// arena, and each row's indices are sorted ascending, as SparseDot requires.
// The per-row loop is SparseDot itself, so each margin is bitwise identical
// to the row path. The SIMD twin runs four rows as four lanes, each one
// row's running sum in its own index order, so the bits stay those of the
// loop; it leaves the last len(out)%4 rows, and any quad with a decreasing
// offset or a negative index, to the loop.
func CSRMargins(offs []int64, indices []int32, values []float64, w Vector, out []float64) {
	j := 0
	if simdOn && len(out) >= 4 && len(w) > 0 {
		n := len(out) &^ 3
		if lo, hi := offs[0], offs[n]; lo >= 0 && hi > 0 && hi <= int64(len(indices)) && hi <= int64(len(values)) {
			j = csrMarginsExactSIMD(offs[:n+1], indices, values, w, out[:n])
		}
	}
	for ; j < len(out); j++ {
		lo, hi := offs[j], offs[j+1]
		out[j] = SparseDot(indices[lo:hi], values[lo:hi], w)
	}
}
