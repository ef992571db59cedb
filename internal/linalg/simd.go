package linalg

import "ml4all/internal/linalg/cpu"

// SIMD backend dispatch. The fast tier's two dense kernels have two
// interchangeable implementations: the portable Go loops in fast.go (always
// compiled, always the correctness oracle) and, on capable amd64 hardware,
// hand-written AVX2+FMA kernels (simd_amd64.s). The exact tier's dense and
// CSR margins, dense accumulate, gradient step, exponential and logistic
// coefficients have AVX2 twins under the same gate. The margins,
// accumulate and step twins are no-FMA kernels that keep the Go loops'
// order of adds per row, per gradient slot and per delta, a multiply then
// an add at each step. gc does not contract `s += a*b` on amd64 at any
// GOAMD64 level, so the Go loops round the same way and the twins return
// their bits; the exponential twins fuse exactly where math.Exp does.
// Selection happens once at init from runtime CPU detection — a stock
// GOAMD64=v1 binary dispatches the assembly when the silicon has it. The
// noasm build tag compiles the assembly out entirely, and every other
// architecture runs the portable loops.

// simdOn gates every dispatch to the kernel backend, both tiers'. It is
// computed once at init and only written afterwards by SetSIMD, a test and
// bench hook.
var simdOn = simdAvailable()

// Backend names as reported by FastBackend and surfaced in /metrics, /healthz
// and the run ledger.
const (
	BackendFastGo   = "fast-go"
	BackendSIMDAVX2 = "fast-simd-avx2"
)

// SIMDAvailable reports whether this binary carries an assembly kernel
// backend the running CPU can execute (noasm builds and non-amd64 ports
// report false).
func SIMDAvailable() bool { return simdAvailable() }

// SIMDEnabled reports whether kernel calls currently dispatch to the
// assembly backend.
func SIMDEnabled() bool { return simdOn }

// SetSIMD forces the assembly backend on or off, returning the previous
// state; enabling is a no-op when no backend is available. It exists so
// tests and benchmarks can pin a backend — it is not synchronized with
// concurrent kernel calls, so flip it only around quiescent points.
func SetSIMD(on bool) (prev bool) {
	prev = simdOn
	simdOn = on && simdAvailable()
	return prev
}

// FastBackend names the kernel family a FastMath run executes right now:
// BackendFastGo for the portable loops, BackendSIMDAVX2 when dispatch is
// live.
func FastBackend() string {
	if simdOn {
		return BackendSIMDAVX2
	}
	return BackendFastGo
}

// CPUFeatures summarizes runtime CPU detection for artifacts and metrics,
// e.g. "avx2,fma" or "none".
func CPUFeatures() string { return cpu.Detected.Summary() }
