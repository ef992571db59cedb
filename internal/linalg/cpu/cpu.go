// Package cpu performs runtime CPU feature detection for the SIMD kernel
// backend beneath the fast-math tier (internal/linalg). Detection runs once
// at init; the result answers exactly one question — can this binary's hand-
// written vector kernels execute on this machine? — so a stock GOAMD64=v1
// build still dispatches AVX2+FMA assembly when the silicon has it, instead
// of needing the compile-time GOAMD64=v3 arrangement CI used before.
//
// The `noasm` build tag compiles the detection (and every linalg .s file)
// out, so Features reports nothing and the pure-Go fast loops are the whole
// fast tier — as they are on every architecture other than amd64.
package cpu

// Features describes the vector ISA extensions the running CPU supports, as
// far as the linalg kernel backend cares.
type Features struct {
	// AVX2 and FMA together enable the amd64 kernel backend. Both require
	// OS support for saving YMM state (checked via XGETBV), so a true here
	// means the instructions are actually executable, not merely present
	// in CPUID.
	AVX2 bool
	FMA  bool
}

// Detected reports the features of the running CPU. It is set once at init
// and never written afterwards, so reads need no synchronization.
var Detected = detect()

// Summary renders the detection result as a short, stable string for bench
// artifacts and /metrics, e.g. "avx2,fma", "fma" or "none".
func (f Features) Summary() string {
	s := ""
	add := func(name string, on bool) {
		if !on {
			return
		}
		if s != "" {
			s += ","
		}
		s += name
	}
	add("avx2", f.AVX2)
	add("fma", f.FMA)
	if s == "" {
		s = "none"
	}
	return s
}
