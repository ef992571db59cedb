package linalg

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The SIMD backend tests compare three implementations of every fast
// primitive — assembly kernel, portable fast loop, exact kernel — on the
// same inputs. The fast tier's contract is tolerance-based (reassociation
// and FMA contraction change rounding), so agreement is checked against the
// exact result with an error budget normalized by the sum of absolute
// terms, which stays meaningful under heavy cancellation. The exact tier's
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

func TestSIMDDotEquivalence(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			abuf := make([]float64, n+off)
			bbuf := make([]float64, n+off)
			fillMixed(rng, abuf)
			fillMixed(rng, bbuf)
			a, b := Vector(abuf[off:]), Vector(bbuf[off:])
			exact := a.Dot(b)
			norm := sumAbsDot(a, b)

			SetSIMD(true)
			simd := a.DotFast(b)
			SetSIMD(false)
			goFast := a.DotFast(b)

			if !closeEnough(simd, exact, simdKernelEps, norm) {
				t.Fatalf("n=%d off=%d: simd dot %g vs exact %g (norm %g)", n, off, simd, exact, norm)
			}
			if !closeEnough(goFast, exact, simdKernelEps, norm) {
				t.Fatalf("n=%d off=%d: go fast dot %g vs exact %g", n, off, goFast, exact)
			}
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

func TestSIMDSparseDotEquivalence(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(11))
	const d = 100
	w := make(Vector, d)
	fillMixed(rng, w)
	for nnz := 0; nnz <= 67; nnz++ {
		for trial := 0; trial < 4; trial++ {
			// Sorted unique indices over a widened range so a random tail
			// lands at >= d and must be trimmed, not gathered.
			idx := make([]int32, 0, nnz)
			next := int32(0)
			for len(idx) < nnz {
				next += int32(1 + rng.Intn(3))
				idx = append(idx, next)
			}
			vals := make([]float64, nnz)
			fillMixed(rng, vals)

			exact := SparseDot(idx, vals, w)
			SetSIMD(true)
			simd := SparseDotFast(idx, vals, w)
			SetSIMD(false)
			goFast := SparseDotFast(idx, vals, w)

			norm := 1.0
			for k := range idx {
				if idx[k] < d {
					norm += math.Abs(vals[k] * w[idx[k]])
				}
			}
			if !closeEnough(simd, exact, simdKernelEps, norm) {
				t.Fatalf("nnz=%d trial=%d: simd %g vs exact %g", nnz, trial, simd, exact)
			}
			if !closeEnough(goFast, exact, simdKernelEps, norm) {
				t.Fatalf("nnz=%d trial=%d: go fast %g vs exact %g", nnz, trial, goFast, exact)
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
	// Sweep the non-flushed range in vector-sized batches; the scalar tier's
	// documented bound (2e-8 relative vs math.Exp) applies to the vector
	// kernel too — it shares range reduction and polynomial, differing only
	// in FMA contraction and the rounding of k at half-way points.
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

func TestSIMDExpVecEdges(t *testing.T) {
	defer requireSIMD(t)()
	nan := math.NaN()
	inf := math.Inf(1)
	// Edge inputs: specials, both flush thresholds, and the k=1024 band
	// [1023.5·ln2, overflow) where the vector kernel's exponent clamp and
	// the scalar's p*=2 fold must agree.
	xs := []float64{
		nan, inf, -inf, 0, 1, -1,
		709.7827, 709.782712893384, 709.7827128933841, 710, 1000,
		709.0827, 709.44, 709.5, 709.75,
		-708.396418532264, -708.3964185322639, -708.397, -745, -1000,
		1e-300, -1e-300, 5e-324, -5e-324,
	}
	// Pad to force both the vector body and the scalar remainder over the
	// same values: run once at full length, once element-wise.
	got := make([]float64, len(xs))
	SetSIMD(true)
	ExpFastVec(got, xs)
	for i, x := range xs {
		want := ExpFast(x)
		if !closeEnough(got[i], want, 2e-8, math.Max(want, 1)) {
			t.Fatalf("ExpFastVec(%g) = %g, scalar ExpFast = %g", x, got[i], want)
		}
		single := []float64{x}
		one := make([]float64, 1)
		ExpFastVec(one, single) // scalar-remainder path
		if !(one[0] == want || (math.IsNaN(one[0]) && math.IsNaN(want))) {
			t.Fatalf("ExpFastVec scalar tail (%g) = %g, want %g", x, one[0], want)
		}
	}
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
// every 4-column and 4-row tail, row counts 0–9 and a full 512-row block,
// and values from plain normals to ±0, ±Inf, NaN and subnormals.
func TestSIMDExactKernelsBitwise(t *testing.T) {
	defer requireSIMD(t)()
	rng := rand.New(rand.NewSource(13))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 100, 128, 2000}
	rowCounts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 512}
	for _, d := range widths {
		for _, rows := range rowCounts {
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

// exactKernels names the TEXT symbols of simd_amd64.s that serve the exact
// tier.
var exactKernels = []string{"denseMarginsExactAVX2", "denseAccumExactAVX2"}

// TestSIMDExactKernelsHaveNoFMA reads simd_amd64.s and fails if an exact
// kernel's TEXT body — with every macro it names expanded, transitively —
// contains a fused multiply-add, whose single rounding would break the
// bitwise contract. It also pins the rest of the kernels' shape: NOSPLIT
// leaves (no CALL) that end in VZEROUPPER.
func TestSIMDExactKernelsHaveNoFMA(t *testing.T) {
	src, err := os.ReadFile("simd_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(src), "\\\n", " ") // join macro continuation lines
	macros := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^#define\s+(\w+)(.*)$`).FindAllStringSubmatch(text, -1) {
		macros[m[1]] += m[2] + "\n"
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
	fma := regexp.MustCompile(`(?i)\bVF(N)?M(ADD|SUB)\w*`)
	nextDecl := regexp.MustCompile(`(?m)^(TEXT|#define|DATA|GLOBL)\b`)
	for _, name := range exactKernels {
		head := regexp.MustCompile(`(?m)^TEXT ·` + name + `\(SB\),(.*)$`).FindStringSubmatchIndex(text)
		if head == nil {
			t.Fatalf("no TEXT ·%s in simd_amd64.s", name)
		}
		if !strings.Contains(text[head[2]:head[3]], "NOSPLIT") {
			t.Errorf("%s is not NOSPLIT", name)
		}
		body := text[head[1]:]
		if end := nextDecl.FindStringIndex(body); end != nil {
			body = body[:end[0]]
		}
		full := expand(body)
		if op := fma.FindString(full); op != "" {
			t.Errorf("%s contains %s: an exact kernel must multiply, then add", name, op)
		}
		if strings.Contains(full, "CALL") {
			t.Errorf("%s is not a leaf", name)
		}
		lastRet := strings.LastIndex(full[:len(body)], "RET")
		if lastRet < 0 || !strings.Contains(expand(body[:lastRet]), "VZEROUPPER") {
			t.Errorf("%s does not end in VZEROUPPER", name)
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

// FuzzKernelEquivalence drives all three implementations of dot, margins,
// accum and sparse dot from fuzzer-chosen shapes and a value pool that
// includes denormals, infinities and NaN, asserting tolerance-equivalence
// (or matching non-finite class) everywhere. Two kinds hold the exact
// tier's margins and accumulate to their Go loops bit for bit instead.
// Widths and offsets wrap into 1..67 and 0..3, the ranges where every asm
// tail path lives.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(0), uint8(0))
	f.Add(int64(2), uint8(17), uint8(1), uint8(1))
	f.Add(int64(3), uint8(64), uint8(3), uint8(2))
	f.Add(int64(4), uint8(1), uint8(0), uint8(3))
	f.Add(int64(5), uint8(33), uint8(2), uint8(4))
	f.Add(int64(6), uint8(6), uint8(5), uint8(5))
	f.Add(int64(7), uint8(9), uint8(6), uint8(6))
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
		off := int(offRaw) % 4
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

		switch kind % 7 {
		case 0: // dot
			a := make(Vector, n+off)
			b := make(Vector, n+off)
			fill(a)
			fill(b)
			a, b = a[off:], b[off:]
			exact := a.Dot(b)
			SetSIMD(true)
			simd := a.DotFast(b)
			if !check(simd, exact, simdKernelEps, sumAbsDot(a, b)) {
				t.Fatalf("dot n=%d: simd %g exact %g", n, simd, exact)
			}
		case 1: // dense margins
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
		case 2: // dense accum
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
		case 3: // sparse dot, indices straddling len(w)
			d := 1 + int(nRaw)%100
			w := make(Vector, d)
			fill(w)
			idx := make([]int32, 0, n)
			next := int32(0)
			for len(idx) < n {
				next += int32(1 + rng.Intn(3))
				idx = append(idx, next)
			}
			vals := make([]float64, n)
			fill(vals)
			exact := SparseDot(idx, vals, w)
			SetSIMD(true)
			simd := SparseDotFast(idx, vals, w)
			norm := 1.0
			for k := range idx {
				if int(idx[k]) < d {
					norm += math.Abs(vals[k] * w[idx[k]])
				}
			}
			if !check(simd, exact, simdKernelEps, norm) {
				t.Fatalf("sparse d=%d nnz=%d: simd %g exact %g", d, n, simd, exact)
			}
		case 4: // vector exp over finite mixed magnitudes + specials
			src := make([]float64, n)
			fill(src)
			want := make([]float64, n)
			SetSIMD(false)
			ExpFastVec(want, src)
			got := make([]float64, n)
			SetSIMD(true)
			ExpFastVec(got, src)
			for i := range src {
				if !check(got[i], want[i], 2e-8, math.Max(math.Abs(want[i]), 1)) {
					t.Fatalf("exp(%g): vec %g scalar %g", src[i], got[i], want[i])
				}
			}
		case 5, 6: // exact margins, exact accumulate: bit for bit
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
			if kind%7 == 5 {
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
		}
	})
}
