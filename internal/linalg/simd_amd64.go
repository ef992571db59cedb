//go:build amd64 && !noasm

package linalg

import "ml4all/internal/linalg/cpu"

// amd64 kernel backend: AVX2 assembly in simd_amd64.s, FMA-contracted for
// the fast tier and multiply-then-add for the exact tier. The wrappers here
// own every slice-emptiness and dimension check the assembly assumes — the
// kernels themselves receive bare pointers plus validated lengths.

const (
	// Dispatch thresholds: below these the asm call transition costs more
	// than the vector win over the Go fast loops (measured on AVX2 hardware;
	// the block-granular kernels — margins, accum, exp — amortize the call
	// over a whole block and need no threshold).
	dotSIMDMinLen    = 16
	sparseSIMDMinNNZ = 8
)

func simdAvailable() bool { return cpu.Detected.AVX2 && cpu.Detected.FMA }

//go:noescape
func dotAVX2(a, b *float64, n int) float64

//go:noescape
func denseMarginsAVX2(vals *float64, stride int, w *float64, out *float64, rows int)

//go:noescape
func denseAccumAVX2(grad *float64, d int, vals *float64, coeffs *float64, rows int)

//go:noescape
func denseMarginsExactAVX2(vals *float64, stride int, w *float64, out *float64, rows int)

//go:noescape
func denseAccumExactAVX2(grad *float64, d int, vals *float64, coeffs *float64, rows int)

//go:noescape
func sparseDotAVX2(idx *int32, vals *float64, n int, w *float64) float64

//go:noescape
func expVecAVX2(dst, src *float64, n int)

// dotSIMD computes <a, b>. Caller guarantees len(a) == len(b) > 0.
func dotSIMD(a, b []float64) float64 { return dotAVX2(&a[0], &b[0], len(a)) }

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

// denseAccumExactSIMD is the exact DenseAccum. Same contract as
// denseAccumSIMD.
func denseAccumExactSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	denseAccumExactAVX2(&grad[0], stride, &vals[0], &coeffs[0], len(coeffs))
}

// sparseDotSIMD gathers w[idx[k]]·vals[k]. Caller guarantees the index tail
// is already trimmed below len(w), indices are non-negative, and
// len(idx) == len(vals) > 0.
func sparseDotSIMD(idx []int32, vals []float64, w Vector) float64 {
	return sparseDotAVX2(&idx[0], &vals[0], len(idx), &w[0])
}

// expVecSIMD fills dst[i] = ExpFast(src[i]). Caller guarantees
// len(dst) == len(src), positive and a multiple of 4.
func expVecSIMD(dst, src []float64) {
	expVecAVX2(&dst[0], &src[0], len(src))
}
