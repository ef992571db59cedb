package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomSparse draws a normalized (idx, vals) pair below dim.
func randomSparse(r *rand.Rand, dim int) ([]int32, []float64) {
	nnz := r.Intn(dim + 1)
	idx := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	for len(idx) < nnz {
		idx = append(idx, int32(r.Intn(dim)))
		val = append(val, r.NormFloat64())
	}
	n, err := SortDedup(idx, val)
	if err != nil {
		panic(err)
	}
	return idx[:n], val[:n]
}

// TestSortDedupSortsAndSums: SortDedup, the one normalization rule of a
// sparse row, sorts by index and sums duplicates.
func TestSortDedupSortsAndSums(t *testing.T) {
	idx, val := []int32{5, 1, 5, 3}, []float64{1, 2, 4, 8}
	n, err := SortDedup(idx, val)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int32{1, 3, 5}
	wantVal := []float64{2, 8, 5} // duplicates at index 5 summed
	if !reflect.DeepEqual(idx[:n], wantIdx) {
		t.Fatalf("indices = %v, want %v", idx[:n], wantIdx)
	}
	if !reflect.DeepEqual(val[:n], wantVal) {
		t.Fatalf("values = %v, want %v", val[:n], wantVal)
	}
}

func TestSortDedupRejectsBadInput(t *testing.T) {
	if _, err := SortDedup([]int32{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SortDedup([]int32{-1}, []float64{1}); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestSparseDenseDotEquivalenceProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(7)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			dim := 1 + r.Intn(24)
			idx, val := randomSparse(r, dim)
			vals[0], vals[1] = reflect.ValueOf(idx), reflect.ValueOf(val)
			w := make(Vector, dim)
			for i := range w {
				w[i] = r.NormFloat64()
			}
			vals[2] = reflect.ValueOf(w)
		},
	}
	f := func(idx []int32, val []float64, w Vector) bool {
		dense := NewVector(len(w))
		SparseAddScaledInto(dense, 1, idx, val)
		want := dense.Dot(w)
		got := SparseDot(idx, val, w)
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaledIntoMatchesDense(t *testing.T) {
	dst := Vector{1, 1, 1}
	SparseAddScaledInto(dst, 2, []int32{0, 2}, []float64{1.5, -2})
	want := Vector{4, 1, -3}
	if !dst.Equal(want, 1e-12) {
		t.Fatalf("SparseAddScaledInto = %v, want %v", dst, want)
	}
}

func TestSparseIndicesBeyondDenseDimIgnored(t *testing.T) {
	idx, val := []int32{0, 10}, []float64{2, 99}
	w := Vector{3, 3}
	if got := SparseDot(idx, val, w); got != 6 {
		t.Fatalf("SparseDot with out-of-range index = %g, want 6", got)
	}
	dst := NewVector(2)
	SparseAddScaledInto(dst, 1, idx, val)
	if dst[0] != 2 || dst[1] != 0 {
		t.Fatalf("SparseAddScaledInto with out-of-range index = %v", dst)
	}
}

func TestSparseNorm2(t *testing.T) {
	if got := SparseNorm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("SparseNorm2 = %g, want 5", got)
	}
}

func TestEmptySparse(t *testing.T) {
	if n, err := SortDedup(nil, nil); n != 0 || err != nil {
		t.Fatalf("SortDedup of nothing = %d, %v", n, err)
	}
	if SparseDot(nil, nil, Vector{1, 2}) != 0 {
		t.Fatal("empty sparse dot != 0")
	}
}

// TestSparseAddScaledIntoMatchesPlainLoop holds the trimmed, unrolled CSR
// accumulate to the plain loop that tests the bound on every index, bit for
// bit, over lengths around the ×4 unroll and rows whose tail (or whole
// index list) lies past dst.
func TestSparseAddScaledIntoMatchesPlainLoop(t *testing.T) {
	plain := func(dst Vector, alpha float64, idx []int32, vals []float64) {
		for k, i := range idx {
			if int(i) >= len(dst) {
				break
			}
			dst[i] += alpha * vals[k]
		}
	}
	rng := rand.New(rand.NewSource(14))
	const d = 40
	for nnz := 0; nnz <= 13; nnz++ {
		for trial := 0; trial < 20; trial++ {
			idx := make([]int32, nnz)
			next := int32(trial % 3 * 12) // some rows start near or past d
			for k := range idx {
				next += int32(1 + rng.Intn(5))
				idx[k] = next
			}
			vals := make([]float64, nnz)
			fillMixed(rng, vals)
			alpha := rng.NormFloat64()
			want := make(Vector, d)
			fillMixed(rng, want)
			want[1] = math.Copysign(0, -1)
			got := want.Clone()
			plain(want, alpha, idx, vals)
			SparseAddScaledInto(got, alpha, idx, vals)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("nnz=%d trial=%d: dst[%d] %v, plain loop %v", nnz, trial, i, got[i], want[i])
				}
			}
		}
	}
}
