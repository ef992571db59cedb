//go:build amd64 && !noasm

package linalg

import "ml4all/internal/linalg/cpu"

// amd64 kernel backend: AVX2 assembly in simd_amd64.s, FMA-contracted for
// the fast tier and multiply-then-add for the exact tier. The wrappers here
// own every slice-emptiness and dimension check the assembly assumes — the
// kernels themselves receive bare pointers plus validated lengths.

func simdAvailable() bool { return cpu.Detected.AVX2 && cpu.Detected.FMA }

//go:noescape
func denseMarginsAVX2(vals *float64, stride int, w *float64, out *float64, rows int)

//go:noescape
func denseAccumAVX2(grad *float64, d int, vals *float64, coeffs *float64, rows int)

//go:noescape
func denseMarginsExactAVX2(vals *float64, stride int, w *float64, out *float64, rows int)

//go:noescape
func denseAccumExactAVX2(grad *float64, d int, vals *float64, coeffs *float64, rows int)

//go:noescape
func stepL1AVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64

//go:noescape
func stepL1LambdaAVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64

//go:noescape
func stepL2SqAVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64

//go:noescape
func stepL2SqLambdaAVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64

//go:noescape
func csrMarginsExactAVX2(offs *int64, idx *int32, vals *float64, w *float64, d int, out *float64, rows int) int

//go:noescape
func expVecExactAVX2(dst, src *float64, n int) int

//go:noescape
func logisticCoeffsAVX2(y, m *float64, n int) int

// denseMarginsSIMD fills out[j] = <row j, w> over a contiguous dense block.
// Caller guarantees stride == len(w) > 0, len(out) > 0, and that vals holds
// len(out) full rows.
func denseMarginsSIMD(vals []float64, stride int, w Vector, out []float64) {
	denseMarginsAVX2(&vals[0], stride, &w[0], &out[0], len(out))
}

// denseAccumSIMD applies grad[i] += Σ_j coeffs[j]·vals[j·stride+i]. Caller
// guarantees len(grad) == stride > 0, len(coeffs) > 0, and a full block of
// rows in vals.
func denseAccumSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	denseAccumAVX2(&grad[0], stride, &vals[0], &coeffs[0], len(coeffs))
}

// denseMarginsExactSIMD is the exact DenseMargins over whole groups of four
// rows. Caller guarantees stride == len(w) > 0, len(out) a positive multiple
// of 4, and that vals holds len(out) full rows.
func denseMarginsExactSIMD(vals []float64, stride int, w Vector, out []float64) {
	denseMarginsExactAVX2(&vals[0], stride, &w[0], &out[0], len(out))
}

// csrMarginsExactSIMD is the exact CSRMargins over whole groups of four
// rows; it returns the rows it computed (see csrMarginsExactAVX2). Caller
// guarantees len(offs) == len(out)+1, len(out) a positive multiple of 4,
// len(w) > 0, 0 ≤ offs[0] and offs[len(out)] ≤ len(indices), len(values),
// with offs[len(out)] > 0.
func csrMarginsExactSIMD(offs []int64, indices []int32, values []float64, w Vector, out []float64) int {
	return csrMarginsExactAVX2(&offs[0], &indices[0], &values[0], &w[0], len(w), &out[0], len(out))
}

// denseAccumExactSIMD is the exact DenseAccum. Same contract as
// denseAccumSIMD.
func denseAccumExactSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	denseAccumExactAVX2(&grad[0], stride, &vals[0], &coeffs[0], len(coeffs))
}

// stepL1SIMD is StepL1 over whole groups of four components. Caller
// guarantees len(w) a positive multiple of 4 and old, acc at least as long.
// A zero lambda takes the kernel without the lambda term.
func stepL1SIMD(w, old, acc Vector, inv, lambda, negStep float64) float64 {
	if lambda != 0 {
		return stepL1LambdaAVX2(&w[0], &old[0], &acc[0], len(w), inv, lambda, negStep)
	}
	return stepL1AVX2(&w[0], &old[0], &acc[0], len(w), inv, lambda, negStep)
}

// stepL2SqSIMD is StepL2Sq over whole groups of four components. Same
// contract as stepL1SIMD.
func stepL2SqSIMD(w, old, acc Vector, inv, lambda, negStep float64) float64 {
	if lambda != 0 {
		return stepL2SqLambdaAVX2(&w[0], &old[0], &acc[0], len(w), inv, lambda, negStep)
	}
	return stepL2SqAVX2(&w[0], &old[0], &acc[0], len(w), inv, lambda, negStep)
}

// expVecExactSIMD writes dst[i] = math.Exp(src[i]) over a prefix of whole
// groups of four and returns its length. Caller guarantees
// len(dst) == len(src) ≥ 4.
func expVecExactSIMD(dst, src []float64) int {
	return expVecExactAVX2(&dst[0], &src[0], len(src))
}

// logisticCoeffsSIMD writes m[j] = -y[j] / (1 + math.Exp(y[j]*m[j])) over
// a prefix of whole groups of four and returns its length. Caller
// guarantees len(y) == len(m) ≥ 4.
func logisticCoeffsSIMD(y, m []float64) int {
	return logisticCoeffsAVX2(&y[0], &m[0], len(m))
}
