package linalg

import (
	"math/rand"
	"testing"
)

// Kernel microbenchmarks: exact vs fast tier, side by side, on the portable
// Go loops. The Accum pair isolates the fused four-row accumulate, one of the
// two mechanisms the fast tier's dense win is built from (the margins pair is
// in simd_bench_test.go). Run with
//
//	go test -bench 'Exact$|Fast$' -benchtime=2s ./internal/linalg/
//
// and read each Fast line against its Exact sibling.

var benchSinkF float64

func benchAccum(b *testing.B, fast bool) {
	const rows, d = 512, 50
	r := rand.New(rand.NewSource(8))
	vals := randVec(r, rows*d)
	coeffs := randVec(r, rows)
	grad := make(Vector, d)
	defer SetSIMD(SetSIMD(false)) // pin the portable fast loops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fast {
			DenseAccumFast(grad, vals, d, coeffs)
		} else {
			DenseAccum(grad, vals, d, coeffs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func BenchmarkDenseAccum512x50Exact(b *testing.B) { benchAccum(b, false) }
func BenchmarkDenseAccum512x50Fast(b *testing.B)  { benchAccum(b, true) }
