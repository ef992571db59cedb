package linalg

import (
	"math/rand"
	"testing"
)

// SIMD backend microbenchmarks, the asm-backed siblings of the pairs in
// fast_bench_test.go. Each pins the backend explicitly (SetSIMD) so a row
// always measures the same kernel family regardless of host detection;
// SIMD rows skip on machines without a backend. The three-way read is
//
//	go test -bench 'Exact$|Fast$|SIMD$|FastGo$' -benchtime=2s ./internal/linalg/
//
// exact -> fast-go -> fast-simd, the full kernel ladder; the ExactSIMD rows
// are the exact tier's bit-identical assembly twins.

func requireSIMDBench(b *testing.B) func() {
	b.Helper()
	if !SIMDAvailable() {
		b.Skipf("no SIMD backend (features: %s)", CPUFeatures())
	}
	prev := SetSIMD(true)
	return func() { SetSIMD(prev) }
}

func benchDenseMargins(b *testing.B, d int, simd bool, margins func([]float64, int, Vector, []float64)) {
	const rows = 512
	r := rand.New(rand.NewSource(9))
	vals := randVec(r, rows*d)
	w := randVec(r, d)
	out := make([]float64, rows)
	if simd {
		defer requireSIMDBench(b)()
	} else {
		defer SetSIMD(SetSIMD(false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		margins(vals, d, w, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func BenchmarkDenseMargins512x50Exact(b *testing.B) { benchDenseMargins(b, 50, false, DenseMargins) }
func BenchmarkDenseMargins512x50ExactSIMD(b *testing.B) {
	benchDenseMargins(b, 50, true, DenseMargins)
}
func BenchmarkDenseMargins512x50FastGo(b *testing.B) {
	benchDenseMargins(b, 50, false, DenseMarginsFast)
}
func BenchmarkDenseMargins512x50SIMD(b *testing.B) { benchDenseMargins(b, 50, true, DenseMarginsFast) }

// The bench's dense shapes: d = 100 (batch-train's dense file) and 128.
func BenchmarkDenseMargins512x100Exact(b *testing.B) { benchDenseMargins(b, 100, false, DenseMargins) }
func BenchmarkDenseMargins512x100ExactSIMD(b *testing.B) {
	benchDenseMargins(b, 100, true, DenseMargins)
}
func BenchmarkDenseMargins512x100SIMD(b *testing.B) {
	benchDenseMargins(b, 100, true, DenseMarginsFast)
}
func BenchmarkDenseMargins512x128Exact(b *testing.B) { benchDenseMargins(b, 128, false, DenseMargins) }
func BenchmarkDenseMargins512x128ExactSIMD(b *testing.B) {
	benchDenseMargins(b, 128, true, DenseMargins)
}
func BenchmarkDenseMargins512x128SIMD(b *testing.B) {
	benchDenseMargins(b, 128, true, DenseMarginsFast)
}

func BenchmarkDenseAccum512x50ExactSIMD(b *testing.B) { benchAccumSIMD(b, DenseAccum) }
func BenchmarkDenseAccum512x50SIMD(b *testing.B)      { benchAccumSIMD(b, DenseAccumFast) }

func benchAccumSIMD(b *testing.B, accum func(Vector, []float64, int, []float64)) {
	const rows, d = 512, 50
	r := rand.New(rand.NewSource(8))
	vals := randVec(r, rows*d)
	coeffs := randVec(r, rows)
	grad := make(Vector, d)
	defer requireSIMDBench(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accum(grad, vals, d, coeffs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// benchCSR builds a 512-row CSR block with nnz sorted nonzeros per row over
// width d.
func benchCSR(r *rand.Rand, d, nnz int) (offs []int64, indices []int32, values []float64, w Vector) {
	const rows = 512
	offs = make([]int64, rows+1)
	for j := 1; j <= rows; j++ {
		offs[j] = offs[j-1] + int64(nnz)
	}
	indices = make([]int32, rows*nnz)
	values = make([]float64, rows*nnz)
	for j := 0; j < rows; j++ {
		next := int32(0)
		for k := 0; k < nnz; k++ {
			next += int32(1 + r.Intn((d-int(next))/(nnz-k)))
			indices[j*nnz+k] = next - 1
			values[j*nnz+k] = r.NormFloat64()
		}
	}
	return offs, indices, values, randVec(r, d)
}

func benchCSRMargins(b *testing.B, d, nnz int, simd bool, margins func([]int64, []int32, []float64, Vector, []float64)) {
	r := rand.New(rand.NewSource(10))
	offs, indices, values, w := benchCSR(r, d, nnz)
	out := make([]float64, len(offs)-1)
	if simd {
		defer requireSIMDBench(b)()
	} else {
		defer SetSIMD(SetSIMD(false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		margins(offs, indices, values, w, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/row")
}

// The bench's sparse shape: 40 nonzeros per row over d = 2 000
// (batch-train's sparse file).
func BenchmarkCSRMargins512x40Exact(b *testing.B) { benchCSRMargins(b, 2000, 40, false, CSRMargins) }
func BenchmarkCSRMargins512x40ExactSIMD(b *testing.B) {
	benchCSRMargins(b, 2000, 40, true, CSRMargins)
}

// benchLogisticCoeffs times the exact logistic coefficient pass over a
// 512-row block of ±1 labels and margins of a few units, the Go loop over
// math.Exp against its packed twin. The margins are restored each
// iteration, at the same cost on both rows.
func benchLogisticCoeffs(b *testing.B, simd bool) {
	r := rand.New(rand.NewSource(13))
	y, m := make([]float64, 512), make([]float64, 512)
	for j := range m {
		y[j] = float64(1 - 2*r.Intn(2))
		m[j] = r.NormFloat64() * 3
	}
	buf := make([]float64, len(m))
	if simd {
		defer requireSIMDBench(b)()
	} else {
		defer SetSIMD(SetSIMD(false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, m)
		LogisticCoeffs(y, buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m)), "ns/row")
}

func BenchmarkLogisticCoeffs512Exact(b *testing.B)     { benchLogisticCoeffs(b, false) }
func BenchmarkLogisticCoeffs512ExactSIMD(b *testing.B) { benchLogisticCoeffs(b, true) }

// benchStep times the fused gradient step with λ ≠ 0 and the L1 delta,
// plan-sweep's case, at width d; ns/elem is per model component. The acc
// buffer is zero after the first call, which changes no instruction the
// step runs.
func benchStep(b *testing.B, d int, simd bool) {
	r := rand.New(rand.NewSource(12))
	old, acc := randVec(r, d), randVec(r, d)
	w := make(Vector, d)
	if simd {
		defer requireSIMDBench(b)()
	} else {
		defer SetSIMD(SetSIMD(false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkF = StepL1(w, old, acc, 1.0/64, 1e-4, -0.5)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d), "ns/elem")
}

func BenchmarkStepL1x28Exact(b *testing.B)       { benchStep(b, 28, false) }
func BenchmarkStepL1x28ExactSIMD(b *testing.B)   { benchStep(b, 28, true) }
func BenchmarkStepL1x1000Exact(b *testing.B)     { benchStep(b, 1000, false) }
func BenchmarkStepL1x1000ExactSIMD(b *testing.B) { benchStep(b, 1000, true) }
