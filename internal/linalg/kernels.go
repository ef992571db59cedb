package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Row-view kernels: the same dot/axpy/norm loops the Sparse methods run, but
// over bare (indices, values) slice pairs so callers holding zero-copy views
// into a columnar arena (data.Matrix rows) need not materialize a Sparse
// header per row. Sparse's own methods delegate here; keeping exactly one
// loop per kernel is what makes arena-backed rows bit-identical to
// Sparse-backed units. dotContig below is that single copy for the dense
// dot: Vector.Dot and the block margin kernels both delegate here, so the
// fast tier (fast.go) is the only other dense dot loop in the package.

// dotContig is the canonical exact dense dot-product loop, 4-wide unrolled.
// The unrolling uses ONE accumulator — s is updated in strict index order —
// so the float summation order is exactly that of the naive loop; multiple
// partial sums would be faster still but would change rounding and break the
// blocked-vs-row bitwise guarantee (that trade is exactly what dotContigFast
// makes, behind the opt-in fast-math tier). b must be at least as long as a;
// the explicit reslice hoists the bounds checks out of the loop.
func dotContig(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// SparseDot returns the inner product of the sparse row (idx, vals) with the
// dense vector w. Indices must be sorted ascending; entries with index >= d
// contribute zero (the iteration stops at the first such index), which lets
// callers use model vectors sized from training metadata even when a stray
// point has a larger index.
func SparseDot(idx []int32, vals []float64, w Vector) float64 {
	var sum float64
	d := int32(len(w))
	for k, i := range idx {
		if i >= d {
			break
		}
		sum += vals[k] * w[i]
	}
	return sum
}

// SparseAddScaledInto adds alpha * (idx, vals) into dst in place, ignoring
// indices beyond dst's dimension. Indices must be sorted ascending, so the
// out-of-range ones are a tail: it is trimmed once, from the last index
// (one test for a row that fits), instead of testing every index against
// the bound. The ×4 unroll stores in index order, as the plain loop does.
func SparseAddScaledInto(dst Vector, alpha float64, idx []int32, vals []float64) {
	n := len(idx)
	for n > 0 && int(idx[n-1]) >= len(dst) {
		n--
	}
	idx, vals = idx[:n], vals[:n]
	k := 0
	for ; k+4 <= n; k += 4 {
		dst[idx[k]] += alpha * vals[k]
		dst[idx[k+1]] += alpha * vals[k+1]
		dst[idx[k+2]] += alpha * vals[k+2]
		dst[idx[k+3]] += alpha * vals[k+3]
	}
	for ; k < n; k++ {
		dst[idx[k]] += alpha * vals[k]
	}
}

// SparseNorm2 returns the Euclidean norm of the values of a sparse row.
func SparseNorm2(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// indexValueSorter sorts parallel index/value slices by ascending index.
type indexValueSorter struct {
	idx  []int32
	vals []float64
}

func (s indexValueSorter) Len() int           { return len(s.idx) }
func (s indexValueSorter) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s indexValueSorter) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
}

// SortDedup sorts the parallel (idx, vals) pair in place by ascending index,
// sums the values of duplicate indices, and returns the deduplicated length
// (the first n entries of both slices hold the result). Negative indices are
// rejected. This is the one normalization rule for sparse rows: the per-line
// parser and the columnar arena builder both route through it, so a row built
// either way is bitwise identical.
func SortDedup(idx []int32, vals []float64) (int, error) {
	if len(idx) != len(vals) {
		return 0, fmt.Errorf("linalg: SortDedup length mismatch %d vs %d", len(idx), len(vals))
	}
	ascending := true
	for k, i := range idx {
		if i < 0 {
			return 0, fmt.Errorf("linalg: SortDedup negative index %d", i)
		}
		if k > 0 && idx[k-1] >= i {
			ascending = false
		}
	}
	if ascending {
		// Already normalized (strictly ascending implies no duplicates) —
		// the common case for well-formed input; skips the sort.Sort
		// interface allocation on the bulk-load path.
		return len(idx), nil
	}
	sort.Sort(indexValueSorter{idx, vals})
	n := 0
	for k := range idx {
		if n > 0 && idx[n-1] == idx[k] {
			vals[n-1] += vals[k]
			continue
		}
		idx[n] = idx[k]
		vals[n] = vals[k]
		n++
	}
	return n, nil
}
