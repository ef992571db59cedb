package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The SIMD backend tests compare the fast tier's two dense kernels —
// assembly kernel against exact kernel — on the same inputs. The fast
// tier's contract is tolerance-based (reassociation and FMA contraction
// change rounding), so agreement is checked against the exact result with
// an error budget normalized by the sum of absolute terms, which stays
// meaningful under heavy cancellation. The exact tier's
// assembly twins are held to the Go loops bit for bit (sameBits).
//
// All tests skip when the build or machine has no SIMD backend (noasm tag,
// non-amd64 ports, non-AVX2 amd64 hardware), so the suite is green everywhere
// while still failing loudly on any machine where a kernel misbehaves.

// simdKernelEps bounds |kernel - exact| / Σ|terms|. The fast tier
// reassociates a length-n sum into a handful of chains and contracts
// multiply-adds; both effects stay within a few ulps per term at the block
// sizes the engine uses.
const simdKernelEps = 1e-12

func requireSIMD(t *testing.T) func() {
	t.Helper()
	if !SIMDAvailable() {
		t.Skipf("no SIMD backend (features: %s)", CPUFeatures())
	}
	prev := SetSIMD(true)
	return func() { SetSIMD(prev) }
}

// sumAbsDot is the error normalizer Σ|a_i·b_i| (+1 so zero sums still give
// an absolute bound).
func sumAbsDot(a, b []float64) float64 {
	s := 1.0
	for i := range a {
		s += math.Abs(a[i] * b[i])
	}
	return s
}

// closeEnough reports whether got agrees with want within eps·norm, treating
// non-finite values by class: a NaN expectation demands NaN, an Inf
// expectation the same Inf.
func closeEnough(got, want, eps, norm float64) bool {
	switch {
	case math.IsNaN(want):
		return math.IsNaN(got)
	case math.IsInf(want, 0):
		return got == want
	}
	return math.Abs(got-want) <= eps*norm
}

// fillMixed fills dst with mixed-sign, mixed-magnitude values, sprinkling in
// exact zeros and denormals so the kernels see the full double landscape.
func fillMixed(rng *rand.Rand, dst []float64) {
	for i := range dst {
		switch rng.Intn(12) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = 5e-324 * float64(1+rng.Intn(100)) // denormal
		case 2:
			dst[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(60)-30)
		default:
			dst[i] = rng.NormFloat64()
		}
	}
}

func TestSIMDDenseMarginsEquivalence(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(9))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 17} {
		for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 50, 63, 64, 65, 67} {
			vals := make([]float64, rows*d)
			w := make(Vector, d)
			fillMixed(rng, vals)
			fillMixed(rng, w)
			exact := make([]float64, rows)
			DenseMargins(vals, d, w, exact)

			simd := make([]float64, rows)
			SetSIMD(true)
			DenseMarginsFast(vals, d, w, simd)

			for j := 0; j < rows; j++ {
				row := vals[j*d : (j+1)*d]
				if !closeEnough(simd[j], exact[j], simdKernelEps, sumAbsDot(row, w)) {
					t.Fatalf("rows=%d d=%d row %d: simd %g vs exact %g", rows, d, j, simd[j], exact[j])
				}
			}
		}
	}
}

func TestSIMDDenseAccumEquivalence(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(10))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 17} {
		for _, d := range []int{1, 2, 3, 4, 5, 8, 13, 16, 33, 50, 67} {
			vals := make([]float64, rows*d)
			coeffs := make([]float64, rows)
			base := make(Vector, d)
			fillMixed(rng, vals)
			fillMixed(rng, coeffs)
			fillMixed(rng, base)

			exact := append(Vector(nil), base...)
			for j := 0; j < rows; j++ {
				exact.AddScaled(coeffs[j], vals[j*d:(j+1)*d])
			}

			simd := append(Vector(nil), base...)
			SetSIMD(true)
			DenseAccumFast(simd, vals, d, coeffs)

			for i := 0; i < d; i++ {
				norm := 1 + math.Abs(base[i])
				for j := 0; j < rows; j++ {
					norm += math.Abs(coeffs[j] * vals[j*d+i])
				}
				if !closeEnough(simd[i], exact[i], simdKernelEps, norm) {
					t.Fatalf("rows=%d d=%d elem %d: simd %g vs exact %g", rows, d, i, simd[i], exact[i])
				}
			}
		}
	}
}

func TestSIMDCSRMarginsZeroRows(t *testing.T) {
	defer requireSIMD(t)()
	// Blocks with empty rows (offs[j] == offs[j+1]) and rows whose entire
	// index list is out of range must produce exact zeros, on every backend.
	w := Vector{1, 2, 3}
	offs := []int64{0, 0, 2, 2, 4}
	indices := []int32{0, 2, 5, 9}
	values := []float64{10, 20, 30, 40}
	out := make([]float64, 4)
	SetSIMD(true)
	CSRMarginsFast(offs, indices, values, w, out)
	want := []float64{0, 10*1 + 20*3, 0, 0}
	for j := range want {
		if out[j] != want[j] {
			t.Fatalf("row %d: got %g want %g", j, out[j], want[j])
		}
	}
}

func TestSIMDExpVecAccuracy(t *testing.T) {
	defer requireSIMD(t)()
	// Sweep the finite non-denormal range in vector-sized batches:
	// ExpFastVec is the exact exponential, so it lands well inside the 2e-8
	// relative bound against math.Exp.
	const step = 1e-3
	batch := make([]float64, 0, 4096)
	out := make([]float64, 4096)
	check := func() {
		SetSIMD(true)
		ExpFastVec(out[:len(batch)], batch)
		for i, x := range batch {
			want := math.Exp(x)
			got := out[i]
			if want == 0 || math.IsInf(want, 1) {
				continue // flushed/overflow handled in the edge test
			}
			if rel := math.Abs(got-want) / want; rel > 2e-8 {
				t.Fatalf("ExpFastVec(%g) = %g, want %g (rel %g)", x, got, want, rel)
			}
		}
		batch = batch[:0]
	}
	for x := -708.3; x <= 709.7; x += step {
		batch = append(batch, x)
		if len(batch) == cap(batch) {
			check()
		}
	}
	check()
}

func TestSIMDExpVecAliasAndRemainder(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(12))
	for n := 0; n <= 21; n++ {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 20
		}
		want := make([]float64, n)
		SetSIMD(false)
		ExpFastVec(want, src)
		SetSIMD(true)
		sep := make([]float64, n)
		ExpFastVec(sep, src)
		ExpFastVec(src, src) // in-place
		for i := range want {
			if !closeEnough(sep[i], want[i], 2e-8, math.Max(want[i], 1)) {
				t.Fatalf("n=%d i=%d: vec %g vs scalar %g", n, i, sep[i], want[i])
			}
			if src[i] != sep[i] {
				t.Fatalf("n=%d i=%d: aliased %g vs separate %g", n, i, src[i], sep[i])
			}
		}
	}
}

// sameBits is bitwise equality, except that any NaN equals any NaN: which of
// two NaN operands lends its payload to a sum or product depends on operand
// order, which no contract pins.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// fillSpecial is fillMixed plus, at rate 1/rate, the values a rounding
// difference would show on: ±0, ±Inf, NaN and subnormals of both signs.
func fillSpecial(rng *rand.Rand, dst []float64, rate int) {
	fillMixed(rng, dst)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072e-308, -1e-310}
	for i := range dst {
		if rng.Intn(rate) == 0 {
			dst[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// exactGoRef runs the exact block kernels with the SIMD backend off: the Go
// loops, the oracle their assembly twins must match bit for bit.
func exactGoRef(vals []float64, d int, w Vector, coeffs []float64, base Vector) (margins []float64, grad Vector) {
	defer SetSIMD(SetSIMD(false))
	margins = make([]float64, len(coeffs))
	DenseMargins(vals, d, w, margins)
	grad = append(Vector(nil), base...)
	DenseAccum(grad, vals, d, coeffs)
	return margins, grad
}

// accumBase is a nonzero accumulator with −0 slots: a kernel that skipped
// a +0 term, or added one where the loop does not, would show there.
func accumBase(rng *rand.Rand, d int) Vector {
	base := make(Vector, d)
	fillMixed(rng, base)
	for i := 0; i < d; i += 3 {
		base[i] = math.Copysign(0, -1)
	}
	return base
}

// TestSIMDExactKernelsBitwise holds the exact tier's dispatched DenseMargins
// and DenseAccum to the Go loops bit for bit, over widths on both sides of
// every 4-column and 4-row tail, the exactBlockRows lengths,
// and values from plain normals to ±0, ±Inf, NaN and subnormals.
func TestSIMDExactKernelsBitwise(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(13))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 100, 128, 1003, 2000}
	for _, d := range widths {
		for _, rows := range exactBlockRows {
			for _, rate := range []int{1 << 30, 64, 4} {
				vals := make([]float64, rows*d)
				w := make(Vector, d)
				coeffs := make([]float64, rows)
				fillSpecial(rng, vals, rate)
				fillSpecial(rng, w, rate)
				fillSpecial(rng, coeffs, rate)
				base := accumBase(rng, d)
				wantM, wantG := exactGoRef(vals, d, w, coeffs, base)

				SetSIMD(true)
				gotM := make([]float64, rows)
				DenseMargins(vals, d, w, gotM)
				gotG := append(Vector(nil), base...)
				DenseAccum(gotG, vals, d, coeffs)
				for j := range wantM {
					if !sameBits(gotM[j], wantM[j]) {
						t.Fatalf("d=%d rows=%d rate=%d: margin[%d] %v (%#x), Go loop %v (%#x)", d, rows, rate,
							j, gotM[j], math.Float64bits(gotM[j]), wantM[j], math.Float64bits(wantM[j]))
					}
				}
				for i := range wantG {
					if !sameBits(gotG[i], wantG[i]) {
						t.Fatalf("d=%d rows=%d rate=%d: grad[%d] %v (%#x), Go loop %v (%#x)", d, rows, rate,
							i, gotG[i], math.Float64bits(gotG[i]), wantG[i], math.Float64bits(wantG[i]))
					}
				}
			}
		}
	}
}

// randCSR builds a CSR block of the given row count over width d: rows of
// unequal length (empty ones included), sorted unique indices that run past
// d so a random tail must be trimmed, and values drawn by fillSpecial at
// rate. The first row starts at a nonzero offset, as a block inside an
// arena does.
func randCSR(rng *rand.Rand, rows, d, rate int) (offs []int64, indices []int32, values []float64) {
	pad := rng.Intn(3)
	offs = make([]int64, rows+1)
	indices = make([]int32, pad)
	for j := 0; j < rows; j++ {
		offs[j] = int64(len(indices))
		nnz := rng.Intn(2 * min(d, 40))
		if rng.Intn(6) == 0 {
			nnz = 0
		}
		next := int32(-1)
		for k := 0; k < nnz; k++ {
			next += int32(1 + rng.Intn(3))
			indices = append(indices, next)
		}
	}
	offs[rows] = int64(len(indices))
	values = make([]float64, len(indices))
	fillSpecial(rng, values, rate)
	return offs, indices, values
}

// csrGoRef runs CSRMargins with the SIMD backend off: SparseDot per row,
// the oracle of the gather kernel.
func csrGoRef(offs []int64, indices []int32, values []float64, w Vector) []float64 {
	defer SetSIMD(SetSIMD(false))
	out := make([]float64, len(offs)-1)
	CSRMargins(offs, indices, values, w, out)
	return out
}

// exactBlockRows are the block lengths the exact margins kernels are held
// to their loops over: every length 0–11 (each four-row group alone and
// with every remainder, the 4-row predict shape included), 4k and 8k+4
// lengths for the two-group and one-group paths, and a full block.
var exactBlockRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 20, 36, 512}

// TestSIMDCSRMarginsBitwise holds the exact tier's CSRMargins gather kernel
// to SparseDot row by row, bit for bit: rows of unequal length, empty rows,
// index tails at or past len(w), and ±0, ±Inf, NaN and subnormals in the
// values and the weights.
func TestSIMDCSRMarginsBitwise(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(14))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 100, 128, 1003} {
		for _, rows := range exactBlockRows {
			for _, rate := range []int{1 << 30, 64, 4} {
				offs, indices, values := randCSR(rng, rows, d, rate)
				w := make(Vector, d)
				fillSpecial(rng, w, rate)
				want := csrGoRef(offs, indices, values, w)
				SetSIMD(true)
				got := make([]float64, rows)
				CSRMargins(offs, indices, values, w, got)
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("d=%d rows=%d rate=%d: margin[%d] %v (%#x), SparseDot %v (%#x)", d, rows, rate,
							j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestSIMDCSRMarginsPanicsLikeSparseDot pins the kernel's hand-back: a row
// with a negative index, or offsets that run backwards, panics on the SIMD
// path as the Go loop does, instead of reading outside the arena.
func TestSIMDCSRMarginsPanicsLikeSparseDot(t *testing.T) {
	defer requireSIMD(t)()
	w := Vector{1, 2, 3, 4}
	cases := map[string]struct {
		offs    []int64
		indices []int32
	}{
		"negative index":     {[]int64{0, 1, 2, 3, 4}, []int32{0, 1, -2, 3}},
		"decreasing offsets": {[]int64{0, 2, 1, 3, 4}, []int32{0, 1, 2, 3}},
	}
	for name, c := range cases {
		for _, simd := range []bool{false, true} {
			SetSIMD(simd)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				CSRMargins(c.offs, c.indices, make([]float64, 4), w, make([]float64, 4))
				return false
			}()
			if !panicked {
				t.Errorf("%s, simd=%v: CSRMargins did not panic", name, simd)
			}
		}
	}
}

// log2e is math.Exp's LOG2E, the factor of its range reduction.
const log2e = 1.4426950408889634073599246810018920

// expEdgeInputs are the arguments where an exponential twin could part
// from math.Exp: both zeros, the infinities, NaN and subnormals; the
// overflow threshold 7.09782712893384e+02 and its neighbours, and the
// arguments where k = round(x·log2e) crosses 1023 → 1024; the denormal
// range below −708 down past the last nonzero result; and every CVTSD2SL
// rounding tie, an x whose x·log2e rounds to exactly n + 0.5, for each n
// of the reduction's range, with its neighbours on both sides.
func expEdgeInputs() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1, -1, 0.5, -0.5,
		7.09782712893384e+02, 709.5, 1023.5 / log2e, -708, -708.4, -708.5, -709,
		-720, -744.4, -745.1332191019411, -745.1332191019412, -746, -1075 / log2e,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	near := func(x float64, ulps int) {
		lo, hi := x, x
		for i := 0; i < ulps; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
	}
	near(7.09782712893384e+02, 4)
	near(1023.5/log2e, 4)
	near(-1022.5/log2e, 4)
	near(-708, 2)
	for x := -708.0; x > -746; x -= 0.37 {
		xs = append(xs, x)
	}
	for n := -1080; n <= 1024; n++ {
		tie := float64(n) + 0.5
		x := tie / log2e
		for i := 0; i < 3; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for i := 0; i < 7; i++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	return xs
}

// TestSIMDExpExactBitwise holds the exponential twin to math.Exp itself,
// bit for bit, over expEdgeInputs and a random sweep of the finite range,
// each placed in every lane of a group and in every buffer length 1–11, so
// that a special lane hands its whole group to the scalar loop from every
// position; in place as well as into a separate buffer.
func TestSIMDExpExactBitwise(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(15))
	xs := expEdgeInputs()
	for i := 0; i < 20000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*760)
	}
	check := func(label string, got, src []float64) {
		t.Helper()
		for i, x := range src {
			if want := math.Exp(x); !sameBits(got[i], want) {
				t.Fatalf("%s: exp(%v) [%d of %d] = %v (%#x), math.Exp %v (%#x)", label, x, i, len(src),
					got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	got := make([]float64, len(xs))
	expVec(got, xs)
	check("sweep", got, xs)
	for n := 1; n <= 11; n++ {
		for _, x := range xs[:len(xs)-20000] {
			for lane := 0; lane < n; lane++ {
				src := make([]float64, n)
				for i := range src {
					src[i] = rng.NormFloat64() * 5
				}
				src[lane] = x
				dst := make([]float64, n)
				expVec(dst, src)
				check("lane", dst, src)
				inPlace := append([]float64(nil), src...)
				expVec(inPlace, inPlace)
				check("in place", inPlace, src)
			}
		}
	}
}

// TestSIMDLogisticCoeffsBitwise holds LogisticCoeffs with the backend on to
// the scalar expression -y / (1 + math.Exp(y*m)), bit for bit, over labels
// of both signs and zeros, margins from the exponential's edge inputs, and
// every buffer length 1–11 and a full block.
func TestSIMDLogisticCoeffsBitwise(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(16))
	edges := expEdgeInputs()
	labels := []float64{1, -1, 0, math.Copysign(0, -1), 0.5, math.Inf(1), math.NaN()}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 512} {
		for trial := 0; trial < 200; trial++ {
			y := make([]float64, n)
			m := make([]float64, n)
			for j := range m {
				y[j] = []float64{1, -1}[rng.Intn(2)]
				m[j] = rng.NormFloat64() * 4
				if rng.Intn(8) == 0 {
					m[j] = edges[rng.Intn(len(edges))]
				}
				if rng.Intn(16) == 0 {
					y[j] = labels[rng.Intn(len(labels))]
				}
			}
			got := append([]float64(nil), m...)
			LogisticCoeffs(y, got)
			for j := range m {
				if want := -y[j] / (1 + math.Exp(y[j]*m[j])); !sameBits(got[j], want) {
					t.Fatalf("n=%d: coeff(y=%v, m=%v) = %v (%#x), scalar %v (%#x)", n, y[j], m[j],
						got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// stepInput is one gradient step's operands: the previous weights (with −0
// components), the accumulator, and the three scalars.
type stepInput struct {
	old, acc             Vector
	inv, lambda, negStep float64
}

// stepScalars are the values the step's scalars are drawn from, besides
// random normals: both zeros, the infinities, NaN and a subnormal. A −0 or
// NaN lambda must take the same branch in the kernel as in the Go loop.
var stepScalars = []float64{0, math.Copysign(0, -1), 1e-4, 1, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}

func randStepInput(rng *rand.Rand, d, rate int) stepInput {
	in := stepInput{old: make(Vector, d), acc: make(Vector, d)}
	fillSpecial(rng, in.old, rate)
	fillSpecial(rng, in.acc, rate)
	for i := 0; i < d; i += 5 {
		in.old[i] = math.Copysign(0, -1)
	}
	scalar := func(plain float64) float64 {
		if rng.Intn(4) == 0 {
			return stepScalars[rng.Intn(len(stepScalars))]
		}
		return plain
	}
	in.inv = scalar(1 / float64(1+rng.Intn(1000)))
	in.lambda = scalar(0)
	in.negStep = scalar(-rng.ExpFloat64())
	return in
}

// runStep runs StepL1 (or StepL2Sq) on a copy of in's buffers, with the
// SIMD backend on or off, and returns the new weights, the accumulator
// after the call, and the delta sum.
func runStep(in stepInput, l2, simd bool) (w, acc Vector, delta float64) {
	defer SetSIMD(SetSIMD(simd))
	w = make(Vector, len(in.old))
	old := append(Vector(nil), in.old...)
	acc = append(Vector(nil), in.acc...)
	if l2 {
		delta = StepL2Sq(w, old, acc, in.inv, in.lambda, in.negStep)
	} else {
		delta = StepL1(w, old, acc, in.inv, in.lambda, in.negStep)
	}
	return w, acc, delta
}

// checkStepBitwise fails t unless the dispatched step matches the Go loop
// bit for bit in w, acc (every slot +0) and the delta sum.
func checkStepBitwise(t *testing.T, label string, in stepInput) {
	t.Helper()
	for _, l2 := range []bool{false, true} {
		wantW, wantAcc, wantDelta := runStep(in, l2, false)
		gotW, gotAcc, gotDelta := runStep(in, l2, true)
		for i := range wantW {
			if !sameBits(gotW[i], wantW[i]) {
				t.Fatalf("%s l2=%v: w[%d] %v (%#x), Go loop %v (%#x)", label, l2,
					i, gotW[i], math.Float64bits(gotW[i]), wantW[i], math.Float64bits(wantW[i]))
			}
			if math.Float64bits(gotAcc[i]) != 0 || math.Float64bits(wantAcc[i]) != 0 {
				t.Fatalf("%s l2=%v: acc[%d] = %v after the step, Go loop %v; want +0", label, l2, i, gotAcc[i], wantAcc[i])
			}
		}
		if !sameBits(gotDelta, wantDelta) {
			t.Fatalf("%s l2=%v: delta %v (%#x), Go loop %v (%#x)", label, l2,
				gotDelta, math.Float64bits(gotDelta), wantDelta, math.Float64bits(wantDelta))
		}
	}
}

// TestSIMDStepKernelsBitwise holds StepL1 and StepL2Sq's AVX2 twins (all
// four: L1 and L2, λ = 0 and λ ≠ 0) to the Go loops bit for bit, over
// widths on both sides of every 4-component tail up to 2 003, and values
// from plain normals to ±0, ±Inf, NaN and subnormals — in the components
// and in the scalars.
func TestSIMDStepKernelsBitwise(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(43))
	widths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 27, 28, 100, 1000, 1003, 2003}
	for trial := 0; trial < 2000; trial++ {
		d := widths[trial%len(widths)]
		rate := []int{1 << 30, 64, 4}[trial%3]
		checkStepBitwise(t, fmt.Sprintf("trial %d d=%d rate=%d", trial, d, rate), randStepInput(rng, d, rate))
	}
}

// asmKernel is one TEXT symbol of simd_amd64.s: its flags, its body, and
// the body with every macro it names appended, transitively.
type asmKernel struct{ flags, body, full string }

// asmKernels reads simd_amd64.s into its TEXT symbols, by name, and returns
// the expansion it applies: text with every macro it names appended,
// transitively (parameter lists cut off, arguments not substituted).
func asmKernels(t *testing.T) (map[string]asmKernel, func(string) string) {
	t.Helper()
	src, err := os.ReadFile("simd_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(src), "\\\n", " ") // join macro continuation lines
	macros := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^#define\s+(\w+)(\([^)]*\))?(.*)$`).FindAllStringSubmatch(text, -1) {
		macros[m[1]] += m[3] + "\n"
	}
	ident := regexp.MustCompile(`\w+`)
	expand := func(body string) string {
		seen := map[string]bool{}
		out := body
		for work := []string{body}; len(work) > 0; {
			next := work[0]
			work = work[1:]
			for _, name := range ident.FindAllString(next, -1) {
				if def, ok := macros[name]; ok && !seen[name] {
					seen[name] = true
					out += def
					work = append(work, def)
				}
			}
		}
		return out
	}
	nextDecl := regexp.MustCompile(`(?m)^(TEXT|#define|DATA|GLOBL)\b`)
	kernels := map[string]asmKernel{}
	for _, head := range regexp.MustCompile(`(?m)^TEXT ·(\w+)\(SB\),(.*)$`).FindAllStringSubmatchIndex(text, -1) {
		body := text[head[1]:]
		if end := nextDecl.FindStringIndex(body); end != nil {
			body = body[:end[0]]
		}
		kernels[text[head[2]:head[3]]] = asmKernel{flags: text[head[4]:head[5]], body: body, full: expand(body)}
	}
	return kernels, expand
}

// exactKernels names the TEXT symbols of simd_amd64.s that serve the exact
// tier and must hold no FMA.
var exactKernels = []string{"denseMarginsExactAVX2", "csrMarginsExactAVX2", "denseAccumExactAVX2",
	"stepL1AVX2", "stepL1LambdaAVX2", "stepL2SqAVX2", "stepL2SqLambdaAVX2"}

// expTwinKernels are the exact tier's kernels built on the exponential
// twin. They are the one exception to the no-FMA rule: math.Exp's own amd64
// body fuses its range reduction, its Horner chain and its last doubling
// step, and a twin that returns its bits must fuse exactly there. They are
// held to archExp's FMA count instead.
var expTwinKernels = []string{"expVecExactAVX2", "logisticCoeffsAVX2"}

var fmaOpcode = regexp.MustCompile(`(?i)\bVF(N)?M(ADD|SUB)\w*`)

// checkKernelShape fails unless the kernel is a NOSPLIT leaf (no CALL)
// that ends in VZEROUPPER.
func checkKernelShape(t *testing.T, name string, k asmKernel, expand func(string) string) {
	t.Helper()
	if !strings.Contains(k.flags, "NOSPLIT") {
		t.Errorf("%s is not NOSPLIT", name)
	}
	if strings.Contains(k.full, "CALL") {
		t.Errorf("%s is not a leaf", name)
	}
	lastRet := strings.LastIndex(k.body, "RET")
	if lastRet < 0 || !strings.Contains(expand(k.body[:lastRet]), "VZEROUPPER") {
		t.Errorf("%s does not end in VZEROUPPER", name)
	}
}

// TestSIMDExactKernelsHaveNoFMA reads simd_amd64.s and fails if an exact
// kernel's TEXT body — with every macro it names expanded, transitively —
// contains a fused multiply-add, whose single rounding would break the
// bitwise contract. It also pins the rest of the kernels' shape: NOSPLIT
// leaves (no CALL) that end in VZEROUPPER. The exponential twin's kernels
// get the same shape check here; their FMA rule is
// TestSIMDExpTwinFusesWhereMathExpDoes.
func TestSIMDExactKernelsHaveNoFMA(t *testing.T) {
	kernels, expand := asmKernels(t)
	for _, name := range append(append([]string(nil), exactKernels...), expTwinKernels...) {
		k, ok := kernels[name]
		if !ok {
			t.Fatalf("no TEXT ·%s in simd_amd64.s", name)
		}
		checkKernelShape(t, name, k, expand)
	}
	for _, name := range exactKernels {
		if op := fmaOpcode.FindString(kernels[name].full); op != "" {
			t.Errorf("%s contains %s: an exact kernel must multiply, then add", name, op)
		}
	}
}

// TestSIMDExpTwinFusesWhereMathExpDoes holds each kernel built on the
// exponential twin to as many FMA instructions as the avxfma path of
// math.Exp's amd64 body (archExp in $GOROOT/src/math/exp_amd64.s), read
// from the toolchain's own source. The bitwise tests pin where they sit;
// this pins that no other multiply-add was fused on the way.
func TestSIMDExpTwinFusesWhereMathExpDoes(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(runtime.GOROOT(), "src", "math", "exp_amd64.s"))
	if err != nil {
		t.Skipf("math.Exp's amd64 source is not readable: %v", err)
	}
	text := string(src)
	at := strings.Index(text, "\navxfma:")
	if at < 0 {
		t.Fatal("exp_amd64.s has no avxfma path: math.Exp changed shape, and the twin must follow it")
	}
	want := len(fmaOpcode.FindAllString(text[at:], -1))
	kernels, _ := asmKernels(t)
	for _, name := range expTwinKernels {
		if got := len(fmaOpcode.FindAllString(kernels[name].full, -1)); got != want {
			t.Errorf("%s has %d FMA instructions, math.Exp's avxfma path %d", name, got, want)
		}
	}
}

// TestSIMDKernelsAreVEXOnly reads simd_amd64.s and fails if any kernel —
// its TEXT body or a macro it names — has a legacy (non-VEX) SSE instruction
// on an X register: MOVQ r, Xn, MOVSD, ADDSD, PXOR and the like. After a
// 256-bit operation such an instruction pays an AVX–SSE state transition:
// a MOVQ AX, X13 that loads λ in the step kernel made a d = 4 StepL1 call
// take 240–252 ns against 14–17 ns with VBROADCASTSD from memory. Every X
// and Y operand belongs to a V-prefixed instruction.
func TestSIMDKernelsAreVEXOnly(t *testing.T) {
	kernels, _ := asmKernels(t)
	if len(kernels) == 0 {
		t.Fatal("no TEXT symbols in simd_amd64.s")
	}
	vreg := regexp.MustCompile(`\b[XY]\d+\b`)
	// The mnemonic after any labels. A name followed by "(" invokes a macro
	// or a macro parameter; the replacement text is checked where the
	// expansion appended it.
	mnemonic := regexp.MustCompile(`^\s*(?:\w+:\s*)*(\w+)(\(?)`)
	for name, k := range kernels {
		for _, line := range strings.Split(k.full, "\n") {
			if c := strings.Index(line, "//"); c >= 0 {
				line = line[:c]
			}
			for _, stmt := range strings.Split(line, ";") {
				m := mnemonic.FindStringSubmatch(stmt)
				if m == nil || m[2] != "" || !vreg.MatchString(stmt) {
					continue
				}
				if !strings.HasPrefix(m[1], "V") {
					t.Errorf("%s: %q is not a VEX instruction", name, strings.TrimSpace(stmt))
				}
			}
		}
	}
}

// TestSIMDBackendReporting pins the dispatch bookkeeping: names, the SetSIMD
// hook, and that FastBackend degrades to fast-go when forced off.
func TestSIMDBackendReporting(t *testing.T) {
	prev := SetSIMD(SIMDAvailable())
	defer SetSIMD(prev)
	if SIMDAvailable() {
		SetSIMD(true)
		if got := FastBackend(); got != BackendSIMDAVX2 {
			t.Fatalf("FastBackend() = %q with SIMD on", got)
		}
	}
	SetSIMD(false)
	if got := FastBackend(); got != BackendFastGo {
		t.Fatalf("FastBackend() = %q with SIMD off", got)
	}
	if SetSIMD(true) != false {
		t.Fatal("SetSIMD(true) should report previous state false")
	}
	if !SIMDAvailable() && SIMDEnabled() {
		t.Fatal("SIMD enabled without an available backend")
	}
}

// FuzzKernelEquivalence drives the fast tier's dense margins and accumulate
// from fuzzer-chosen shapes and a value pool that includes denormals,
// infinities and NaN, asserting tolerance-equivalence to the exact kernels
// (or matching non-finite class). Six kinds hold the exact tier's dense
// margins, accumulate, gradient step (StepL1 and StepL2Sq, λ zero of either
// sign or drawn from the pool) and CSR margins to their Go loops, and its
// exponential twin and logistic coefficients to math.Exp and the scalar
// expression, bit for bit instead.
// Widths wrap into 1..67, the range where every asm tail path lives.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(5), uint8(7))
	f.Add(int64(2), uint8(17), uint8(1), uint8(0))
	f.Add(int64(3), uint8(64), uint8(3), uint8(1))
	f.Add(int64(4), uint8(1), uint8(9), uint8(2))
	f.Add(int64(5), uint8(33), uint8(2), uint8(5))
	f.Add(int64(6), uint8(6), uint8(5), uint8(2))
	f.Add(int64(7), uint8(9), uint8(6), uint8(3))
	f.Add(int64(8), uint8(30), uint8(0), uint8(4))
	f.Add(int64(9), uint8(66), uint8(3), uint8(4))
	f.Add(int64(10), uint8(40), uint8(7), uint8(7))
	f.Add(int64(11), uint8(13), uint8(2), uint8(5))
	f.Add(int64(12), uint8(21), uint8(5), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, offRaw, kind uint8) {
		if !SIMDAvailable() {
			t.Skip("no SIMD backend")
		}
		prev := SetSIMD(true)
		defer SetSIMD(prev)

		// When Σ|terms| itself overflows (or is NaN from 0·Inf terms), no
		// tolerance bound is meaningful and FMA's single rounding can even
		// flip the Inf/NaN class of the result — e.g. fma(1e300, 1e300, -Inf)
		// is -Inf while the rounded product path gives +Inf + -Inf = NaN.
		// Such inputs are outside the fast tier's contract; skip the check.
		check := func(got, want, eps, norm float64) bool {
			if math.IsInf(norm, 0) || math.IsNaN(norm) {
				return true
			}
			return closeEnough(got, want, eps, norm)
		}

		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%67
		pool := []float64{0, 1, -1, 0.5, 1e300, -1e300, 5e-324, -5e-324,
			math.Inf(1), math.Inf(-1), math.NaN(), 1e-308, math.Pi}
		draw := func() float64 {
			if rng.Intn(8) == 0 {
				return pool[rng.Intn(len(pool))]
			}
			return rng.NormFloat64()
		}
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = draw()
			}
		}

		switch kind % 8 {
		case 0: // dense margins
			rows := 1 + int(offRaw)%7
			vals := make([]float64, rows*n)
			w := make(Vector, n)
			fill(vals)
			fill(w)
			exact := make([]float64, rows)
			DenseMargins(vals, n, w, exact)
			simd := make([]float64, rows)
			SetSIMD(true)
			DenseMarginsFast(vals, n, w, simd)
			for j := range exact {
				if !check(simd[j], exact[j], simdKernelEps, sumAbsDot(vals[j*n:(j+1)*n], w)) {
					t.Fatalf("margins row %d: simd %g exact %g", j, simd[j], exact[j])
				}
			}
		case 1: // dense accum
			rows := 1 + int(offRaw)%9
			vals := make([]float64, rows*n)
			coeffs := make([]float64, rows)
			fill(vals)
			fill(coeffs)
			exact := make(Vector, n)
			for j := 0; j < rows; j++ {
				exact.AddScaled(coeffs[j], vals[j*n:(j+1)*n])
			}
			simd := make(Vector, n)
			SetSIMD(true)
			DenseAccumFast(simd, vals, n, coeffs)
			for i := range exact {
				norm := 1.0
				for j := 0; j < rows; j++ {
					norm += math.Abs(coeffs[j] * vals[j*n+i])
				}
				if !check(simd[i], exact[i], simdKernelEps, norm) {
					t.Fatalf("accum elem %d: simd %g exact %g", i, simd[i], exact[i])
				}
			}
		case 2, 3: // exact margins, exact accumulate: bit for bit
			rows := int(offRaw) % 10
			vals := make([]float64, rows*n)
			w := make(Vector, n)
			coeffs := make([]float64, rows)
			fill(vals)
			fill(w)
			fill(coeffs)
			base := accumBase(rng, n)
			wantM, wantG := exactGoRef(vals, n, w, coeffs, base)
			SetSIMD(true)
			if kind%8 == 2 {
				got := make([]float64, rows)
				DenseMargins(vals, n, w, got)
				for j := range got {
					if !sameBits(got[j], wantM[j]) {
						t.Fatalf("exact margins row %d: simd %v Go %v", j, got[j], wantM[j])
					}
				}
				return
			}
			got := append(Vector(nil), base...)
			DenseAccum(got, vals, n, coeffs)
			for i := range got {
				if !sameBits(got[i], wantG[i]) {
					t.Fatalf("exact accum elem %d: simd %v Go %v", i, got[i], wantG[i])
				}
			}
		case 4: // gradient step, L1 and L2: bit for bit
			in := stepInput{old: make(Vector, n), acc: make(Vector, n)}
			fill(in.old)
			fill(in.acc)
			for i := range in.old {
				if rng.Intn(8) == 0 {
					in.old[i] = math.Copysign(0, -1)
				}
			}
			in.inv, in.lambda, in.negStep = draw(), draw(), -draw()
			switch offRaw % 4 {
			case 0:
				in.lambda = 0
			case 1:
				in.lambda = math.Copysign(0, -1)
			}
			checkStepBitwise(t, fmt.Sprintf("step n=%d", n), in)
		case 5, 6: // exponential twin, logistic coefficients: bit for bit
			src := make([]float64, n)
			for i := range src {
				switch rng.Intn(4) {
				case 0:
					src[i] = draw()
				case 1:
					src[i] = (rng.Float64()*2 - 1) * 760
				default:
					src[i] = rng.NormFloat64() * 8
				}
			}
			if kind%8 == 5 {
				got := make([]float64, n)
				expVec(got, src)
				for i, x := range src {
					if want := math.Exp(x); !sameBits(got[i], want) {
						t.Fatalf("exp(%v): twin %v math.Exp %v", x, got[i], want)
					}
				}
				return
			}
			y := make([]float64, n)
			for i := range y {
				y[i] = []float64{1, -1}[rng.Intn(2)]
				if rng.Intn(8) == 0 {
					y[i] = draw()
				}
			}
			got := append([]float64(nil), src...)
			LogisticCoeffs(y, got)
			for i, m := range src {
				if want := -y[i] / (1 + math.Exp(y[i]*m)); !sameBits(got[i], want) {
					t.Fatalf("coeff(y=%v, m=%v): twin %v scalar %v", y[i], m, got[i], want)
				}
			}
		case 7: // exact CSR margins: bit for bit against SparseDot
			rows := int(offRaw) % 12
			offs := make([]int64, rows+1)
			var indices []int32
			for j := 0; j < rows; j++ {
				offs[j] = int64(len(indices))
				next := int32(-1)
				for k := rng.Intn(n + 1); k > 0; k-- {
					next += int32(1 + rng.Intn(3))
					indices = append(indices, next)
				}
			}
			offs[rows] = int64(len(indices))
			values := make([]float64, len(indices))
			w := make(Vector, 1+int(nRaw)%100)
			fill(values)
			fill(w)
			want := csrGoRef(offs, indices, values, w)
			SetSIMD(true)
			got := make([]float64, rows)
			CSRMargins(offs, indices, values, w, got)
			for j := range got {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("exact CSR margins row %d: simd %v Go %v", j, got[j], want[j])
				}
			}
		}
	})
}
