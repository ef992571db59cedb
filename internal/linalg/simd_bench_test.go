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

func BenchmarkDot50SIMD(b *testing.B) {
	defer requireSIMDBench(b)()
	x, y := benchVecs(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkF = x.DotFast(y)
	}
}

func benchDenseMargins(b *testing.B, simd bool, margins func([]float64, int, Vector, []float64)) {
	const rows, d = 512, 50
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

func BenchmarkDenseMargins512x50Exact(b *testing.B)     { benchDenseMargins(b, false, DenseMargins) }
func BenchmarkDenseMargins512x50ExactSIMD(b *testing.B) { benchDenseMargins(b, true, DenseMargins) }
func BenchmarkDenseMargins512x50FastGo(b *testing.B)    { benchDenseMargins(b, false, DenseMarginsFast) }
func BenchmarkDenseMargins512x50SIMD(b *testing.B)      { benchDenseMargins(b, true, DenseMarginsFast) }

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

// benchCSR builds a 512-row CSR block with ~25 nonzeros per row over
// d=1000, the sparse shape the engine benchmarks use.
func benchCSR(r *rand.Rand) (offs []int64, indices []int32, values []float64, w Vector) {
	const rows, d, nnz = 512, 1000, 25
	offs = make([]int64, rows+1)
	for j := 1; j <= rows; j++ {
		offs[j] = offs[j-1] + nnz
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

func benchCSRMargins(b *testing.B, simd bool) {
	r := rand.New(rand.NewSource(10))
	offs, indices, values, w := benchCSR(r)
	out := make([]float64, len(offs)-1)
	if simd {
		defer requireSIMDBench(b)()
	} else {
		defer SetSIMD(SetSIMD(false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CSRMarginsFast(offs, indices, values, w, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/row")
}

func BenchmarkCSRMargins512x25FastGo(b *testing.B) { benchCSRMargins(b, false) }
func BenchmarkCSRMargins512x25SIMD(b *testing.B)   { benchCSRMargins(b, true) }

func benchExpVec(b *testing.B, simd bool) {
	r := rand.New(rand.NewSource(11))
	src := make([]float64, 512)
	for i := range src {
		src[i] = r.NormFloat64() * 10
	}
	dst := make([]float64, len(src))
	if simd {
		defer requireSIMDBench(b)()
	} else {
		defer SetSIMD(SetSIMD(false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpFastVec(dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
}

func BenchmarkExpVec512FastGo(b *testing.B) { benchExpVec(b, false) }
func BenchmarkExpVec512SIMD(b *testing.B)   { benchExpVec(b, true) }
