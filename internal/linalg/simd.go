package linalg

import "ml4all/internal/linalg/cpu"

// SIMD backend dispatch. The fast tier now has two interchangeable
// implementations: the portable Go loops in fast.go (always compiled, always
// the correctness oracle) and, on capable hardware, hand-written vector
// kernels (simd_amd64.s / simd_arm64.s). Selection happens once at init from
// runtime CPU detection — a stock GOAMD64=v1 binary dispatches AVX2+FMA
// assembly when the silicon has it — and the exact tier is untouched either
// way. The noasm build tag compiles the assembly out entirely;
// ML4ALL_NOSIMD=1 disables it at process start without rebuilding (both are
// folded into cpu.Detected, which simdAvailable consults).

// simdOn gates every fast-tier dispatch to the kernel backend. It is
// computed once at init and only written afterwards by SetSIMD, a test and
// bench hook.
var simdOn = simdAvailable()

// Backend names as reported by FastBackend and surfaced in /metrics, /healthz
// and the run ledger. The SIMD names are per-architecture constants
// (simdBackendName) such as "fast-simd-avx2" and "fast-simd-neon".
const (
	BackendFastGo   = "fast-go"
	BackendSIMDAVX2 = "fast-simd-avx2"
	BackendSIMDNEON = "fast-simd-neon"
)

// SIMDAvailable reports whether this binary carries an assembly kernel
// backend the running CPU can execute (noasm builds and ML4ALL_NOSIMD
// report false).
func SIMDAvailable() bool { return simdAvailable() }

// SIMDEnabled reports whether fast-tier calls currently dispatch to the
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
// BackendFastGo for the portable loops, or the architecture's SIMD backend
// name when dispatch is live.
func FastBackend() string {
	if simdOn {
		return simdBackendName
	}
	return BackendFastGo
}

// CPUFeatures summarizes runtime CPU detection for artifacts and metrics,
// e.g. "avx2,fma", "neon", or "none (ML4ALL_NOSIMD)".
func CPUFeatures() string { return cpu.Detected.Summary() }
