package linalg

import "fmt"

// Fast-tier kernels: the dense half of the second kernel family behind
// engine.Options.FastMath. Where the exact kernels (kernels.go, block.go)
// buy bitwise identity to the per-row path with a single accumulator
// updated in strict index order, these two buy throughput on dense blocks:
// DenseMarginsFast carries multiple independent accumulators — the gc
// compiler does not auto-vectorize, so the win is breaking the
// floating-point add dependency chain, which lets the CPU retire several
// FMAs per cycle instead of serializing on one running sum — and
// DenseAccumFast adds four rows' terms to a gradient slot at once. The
// price is a changed rounding: results agree with the exact tier only to a relative
// tolerance, never bit for bit. The accuracy contract (per-element bounds,
// pinned by engine.TestFastMathWithinEpsilon) is documented in DESIGN.md
// §10. CSR blocks and the exponential run the exact kernels on both tiers.

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

// CSRMarginsFast is CSRMargins: the fast tier runs the exact CSR kernel.
// Only bench/'s per-layer row calls this name; it goes when that row does.
func CSRMarginsFast(offs []int64, indices []int32, values []float64, w Vector, out []float64) {
	CSRMargins(offs, indices, values, w, out)
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

// ExpFastVec fills dst[i] = math.Exp(src[i]) for every element, bit for
// bit: the fast tier's logistic passes run the exact exponential (exp.go).
// Only bench/'s per-layer row calls this name; it goes when that row does.
// dst and src may alias; lengths must match.
func ExpFastVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: ExpFastVec dimension mismatch %d vs %d", len(dst), len(src)))
	}
	expVec(dst, src)
}
