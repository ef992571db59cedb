//go:build noasm || !amd64

package linalg

// No assembly backend in this build: simdAvailable is constant-false, so
// simdOn can never be set and none of the kernel hooks below is reachable.
// They exist only to satisfy the portable dispatch code, and panic loudly if
// a future edit breaks the simdOn gate.

const (
	dotSIMDMinLen    = 1 << 30
	sparseSIMDMinNNZ = 1 << 30
)

func simdAvailable() bool { return false }

func dotSIMD(a, b []float64) float64 { panic("linalg: SIMD kernel called in noasm build") }

func denseMarginsSIMD(vals []float64, stride int, w Vector, out []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func denseAccumSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func denseMarginsExactSIMD(vals []float64, stride int, w Vector, out []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func denseAccumExactSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func sparseDotSIMD(idx []int32, vals []float64, w Vector) float64 {
	panic("linalg: SIMD kernel called in noasm build")
}

func expVecSIMD(dst, src []float64) { panic("linalg: SIMD kernel called in noasm build") }
