package linalg

import (
	"fmt"
	"math"
)

// Fast-tier kernels: the second kernel family behind engine.Options.FastMath.
// Where the exact kernels (kernels.go, block.go) buy bitwise identity to the
// per-row path with a single accumulator updated in strict index order, these
// buy throughput with multiple independent accumulators — the gc compiler
// does not auto-vectorize, so the win is breaking the floating-point add
// dependency chain, which lets the CPU retire several FMAs per cycle instead
// of serializing on one running sum — plus a polynomial exp for the logistic
// sigmoid. The price is a changed summation order: results agree with the
// exact tier only to a relative tolerance, never bit for bit. The accuracy
// contract (per-element bounds, pinned by engine.TestFastMathWithinEpsilon)
// is documented in DESIGN.md §10.

// FastAccumulators is the number of independent partial sums the fast dense
// dot carries (the "SIMD width" of the tier). Exported so the equivalence
// harness can derive its worst-case reassociation error bound — a dot of
// length n reassociates into FastAccumulators chains of n/FastAccumulators
// adds each, so the error scales like the exact path's, not worse.
const FastAccumulators = 4

// dotContigFast is the fast dense dot: 8-wide unrolled over 4 independent
// accumulators. b must be at least as long as a.
func dotContigFast(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += a[i]*b[i] + a[i+4]*b[i+4]
		s1 += a[i+1]*b[i+1] + a[i+5]*b[i+5]
		s2 += a[i+2]*b[i+2] + a[i+6]*b[i+6]
		s3 += a[i+3]*b[i+3] + a[i+7]*b[i+7]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotFast returns the fast-tier inner product of v and w. It panics if
// dimensions differ, like Vector.Dot. With the SIMD backend enabled and a
// vector long enough to amortize the asm call, it dispatches to the
// assembly kernel; otherwise the portable fast loop runs.
func (v Vector) DotFast(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: DotFast dimension mismatch %d vs %d", len(v), len(w)))
	}
	if simdOn && len(v) >= dotSIMDMinLen {
		return dotSIMD(v, w)
	}
	return dotContigFast(v, w)
}

// DenseMarginsFast is the fast-tier DenseMargins: out[j] = <row j, w>. Same
// dimension contract as DenseMargins. The SIMD backend takes whole blocks —
// the row loop itself runs behind one dispatch, so there is no per-row
// threshold.
func DenseMarginsFast(vals []float64, stride int, w Vector, out []float64) {
	if len(w) != stride {
		panic(fmt.Sprintf("linalg: DenseMarginsFast dimension mismatch %d vs %d", stride, len(w)))
	}
	if simdOn && stride > 0 && len(out) > 0 {
		_ = vals[len(out)*stride-1] // one bounds proof for the whole block
		denseMarginsSIMD(vals, stride, w, out)
		return
	}
	for j := range out {
		row := vals[j*stride : (j+1)*stride : (j+1)*stride]
		out[j] = dotContigFast(row, w)
	}
}

// sparseDotFast is the fast sparse dot: two independent accumulators over the
// gathered products. The exact kernel's contract — entries with index >=
// len(w) contribute zero, iteration stops at the first such index — is kept
// by trimming the (sorted) index tail before the unrolled loop, so the fast
// path sums exactly the same terms, just in a different association.
func sparseDotFast(idx []int32, vals []float64, w Vector) float64 {
	d := int32(len(w))
	n := len(idx)
	for n > 0 && idx[n-1] >= d {
		n--
	}
	var s0, s1 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += vals[k]*w[idx[k]] + vals[k+2]*w[idx[k+2]]
		s1 += vals[k+1]*w[idx[k+1]] + vals[k+3]*w[idx[k+3]]
	}
	for ; k < n; k++ {
		s0 += vals[k] * w[idx[k]]
	}
	return s0 + s1
}

// SparseDotFast is the exported fast-tier SparseDot. Indices must be sorted
// ascending (the SortDedup normalization every arena row satisfies). Rows
// with enough in-range entries dispatch to the gather kernel when the SIMD
// backend is on; the trim below re-establishes the kernel's in-bounds
// contract, and a (contract-violating) negative leading index falls through
// to the Go loop, which panics the same way the exact tier would.
func SparseDotFast(idx []int32, vals []float64, w Vector) float64 {
	if simdOn {
		d := int32(len(w))
		n := len(idx)
		for n > 0 && idx[n-1] >= d {
			n--
		}
		if n >= sparseSIMDMinNNZ && idx[0] >= 0 {
			return sparseDotSIMD(idx[:n], vals[:n], w)
		}
		idx, vals = idx[:n], vals[:n]
	}
	return sparseDotFast(idx, vals, w)
}

// CSRMarginsFast is the fast-tier CSRMargins: out[j] = SparseDotFast(row j)
// over a contiguous CSR block, with per-row SIMD dispatch (row lengths vary,
// so the gather threshold is a per-row decision).
func CSRMarginsFast(offs []int64, indices []int32, values []float64, w Vector, out []float64) {
	for j := range out {
		lo, hi := offs[j], offs[j+1]
		out[j] = SparseDotFast(indices[lo:hi], values[lo:hi], w)
	}
}

// DenseAccumFast is the fast-tier fused block axpy:
//
//	grad[i] += Σ_j coeffs[j] · vals[j·stride+i]
//
// processed four rows per pass, so each gradient element is loaded and stored
// once per four rows instead of once per row — the memory-traffic half of the
// fast tier's dense win. Rows with a zero coefficient still participate (a
// 0·x term), matching the exact kernels' convention. len(grad) must equal
// stride; coeffs has one entry per row.
func DenseAccumFast(grad Vector, vals []float64, stride int, coeffs []float64) {
	if len(grad) != stride {
		panic(fmt.Sprintf("linalg: DenseAccumFast dimension mismatch %d vs %d", stride, len(grad)))
	}
	if simdOn && stride > 0 && len(coeffs) > 0 {
		_ = vals[len(coeffs)*stride-1] // one bounds proof for the whole block
		denseAccumSIMD(grad, vals, stride, coeffs)
		return
	}
	d := len(grad)
	j := 0
	for ; j+4 <= len(coeffs); j += 4 {
		r0 := vals[j*stride : j*stride+d : j*stride+d]
		r1 := vals[(j+1)*stride : (j+1)*stride+d : (j+1)*stride+d]
		r2 := vals[(j+2)*stride : (j+2)*stride+d : (j+2)*stride+d]
		r3 := vals[(j+3)*stride : (j+3)*stride+d : (j+3)*stride+d]
		c0, c1, c2, c3 := coeffs[j], coeffs[j+1], coeffs[j+2], coeffs[j+3]
		for i := 0; i < d; i++ {
			grad[i] += c0*r0[i] + c1*r1[i] + c2*r2[i] + c3*r3[i]
		}
	}
	for ; j < len(coeffs); j++ {
		grad.AddScaled(coeffs[j], vals[j*stride:(j+1)*stride])
	}
}

// Constants of the ExpFast range reduction: x = k·ln2 + r with |r| ≤ ln2/2.
// ln2 is split into a high part exact in 32 bits and a low correction so the
// subtraction x - k·ln2Hi is exact for every |k| the finite double range can
// produce (the standard Cody–Waite scheme libm itself uses).
const (
	expLog2E = 1.44269504088896338700e+00 // 1/ln2
	expLn2Hi = 6.93147180369123816490e-01
	expLn2Lo = 1.90821492927058770002e-10

	// Past these, exp overflows to +Inf / underflows past the smallest
	// denormal. The fast tier flushes the entire denormal output range to
	// zero (inputs below expUnderflow), trading ~7e-308 of absolute accuracy
	// for never paying denormal arithmetic penalties.
	expOverflow  = 709.782712893384
	expUnderflow = -708.396418532264
)

// ExpFast approximates math.Exp with a Cody–Waite range reduction and a
// degree-7 Taylor polynomial on the reduced argument |r| ≤ ln2/2.
//
// Accuracy contract: the polynomial truncation error is bounded by
// r⁸/8! ≤ (ln2/2)⁸/40320 ≈ 5.2e-9 absolute on e^r ∈ [0.707, 1.415], giving a
// maximum relative error below 1e-8 over the whole non-flushed input range
// (the linalg test suite verifies < 2e-8 including rounding, against
// math.Exp, across [-708, 709] and the denormal/huge edge cases). Out-of-range
// behavior matches math.Exp: +Inf above the overflow threshold, 0 below the
// underflow threshold, NaN for NaN — except that results in the denormal
// range flush to zero.
func ExpFast(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	}
	k := math.Floor(x*expLog2E + 0.5)
	r := (x - k*expLn2Hi) - k*expLn2Lo
	// e^r ≈ Σ_{i≤7} rⁱ/i!, Horner form.
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120+r*(1.0/720+r*(1.0/5040)))))))
	// Scale by 2^k with a direct exponent-bit construction instead of
	// math.Ldexp: the clamps above bound k to [-1022, 1024], so the scale is
	// always a normal double once the single overflowing value k = 1024
	// (x just under the overflow threshold, p < 1) is folded into p.
	ki := int64(k)
	if ki > 1023 {
		p *= 2
		ki--
	}
	return p * math.Float64frombits(uint64(ki+1023)<<52)
}

// ExpFastVec fills dst[i] = ExpFast(src[i]) for every element. With the
// SIMD backend on (amd64/AVX2) four lanes evaluate at once, with
// the remainder handled by the scalar ExpFast; elsewhere it is exactly the
// scalar loop. The two paths honor the same accuracy contract as ExpFast
// (they differ only in FMA contraction and round-to-nearest-even vs
// round-half-up choice of k at half-way points, both inside the documented
// bound). dst and src may alias; lengths must match.
func ExpFastVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: ExpFastVec dimension mismatch %d vs %d", len(dst), len(src)))
	}
	i := 0
	if simdOn && len(src) >= 4 {
		n := len(src) &^ 3
		expVecSIMD(dst[:n], src[:n])
		i = n
	}
	for ; i < len(src); i++ {
		dst[i] = ExpFast(src[i])
	}
}
