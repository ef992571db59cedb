package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks: exact vs fast tier, side by side. These isolate the
// two mechanisms the fast tier's engine-level win is built from — breaking the
// FP-add dependency chain (Dot/Accum pairs) and the polynomial exponential
// (Exp pair). Run with
//
//	go test -bench 'Exact$|Fast$' -benchtime=2s ./internal/linalg/
//
// and read each Fast line against its Exact sibling.

func benchVecs(n int) (Vector, Vector) {
	r := rand.New(rand.NewSource(7))
	return randVec(r, n), randVec(r, n)
}

var benchSinkF float64

func BenchmarkDot50Exact(b *testing.B) {
	x, y := benchVecs(50)
	for i := 0; i < b.N; i++ {
		benchSinkF = x.Dot(y)
	}
}

func BenchmarkDot50Fast(b *testing.B) {
	defer SetSIMD(SetSIMD(false)) // pin the portable fast loops
	x, y := benchVecs(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkF = x.DotFast(y)
	}
}

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

func BenchmarkExpExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSinkF = math.Exp(-3 + float64(i%64)*0.1)
	}
}

func BenchmarkExpFast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSinkF = ExpFast(-3 + float64(i%64)*0.1)
	}
}
