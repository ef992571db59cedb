//go:build noasm || !amd64

package linalg

// No assembly backend in this build: simdAvailable is constant-false, so
// simdOn can never be set and none of the kernel hooks below is reachable.
// They exist only to satisfy the portable dispatch code, and panic loudly if
// a future edit breaks the simdOn gate.

func simdAvailable() bool { return false }

func denseMarginsSIMD(vals []float64, stride int, w Vector, out []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func denseAccumSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func denseMarginsExactSIMD(vals []float64, stride int, w Vector, out []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func csrMarginsExactSIMD(offs []int64, indices []int32, values []float64, w Vector, out []float64) int {
	panic("linalg: SIMD kernel called in noasm build")
}

func denseAccumExactSIMD(grad Vector, vals []float64, stride int, coeffs []float64) {
	panic("linalg: SIMD kernel called in noasm build")
}

func stepL1SIMD(w, old, acc Vector, inv, lambda, negStep float64) float64 {
	panic("linalg: SIMD kernel called in noasm build")
}

func stepL2SqSIMD(w, old, acc Vector, inv, lambda, negStep float64) float64 {
	panic("linalg: SIMD kernel called in noasm build")
}

func expVecExactSIMD(dst, src []float64) int { panic("linalg: SIMD kernel called in noasm build") }

func logisticCoeffsSIMD(y, m []float64) int { panic("linalg: SIMD kernel called in noasm build") }
