package gradients

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

func blockTestMatrix(t *testing.T, rng *rand.Rand, dense bool, rows, d int) *data.Matrix {
	t.Helper()
	if dense {
		b := data.NewDenseMatrixBuilder(rows, d)
		vals := make([]float64, d)
		for i := 0; i < rows; i++ {
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			if err := b.AppendDense(blockTestLabel(rng), vals); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	b := data.NewMatrixBuilder(rows, rows*3)
	for i := 0; i < rows; i++ {
		nnz := 1 + rng.Intn(d-1)
		idx := make([]int32, 0, nnz)
		vals := make([]float64, 0, nnz)
		for k := 0; k < nnz; k++ {
			idx = append(idx, int32(rng.Intn(d)))
			vals = append(vals, rng.NormFloat64())
		}
		if err := b.AppendSparse(blockTestLabel(rng), idx, vals); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func blockTestLabel(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// blockEdgeInputs is the hand-built corner of the bitwise lattice: a weight
// vector and rows (dense or CSR) chosen so that every branch a scalar loss
// function has, and every coefficient an accumulate could be tempted to
// treat specially, occurs at least once.
func blockEdgeInputs(t *testing.T, dense bool) (linalg.Vector, *data.Matrix) {
	t.Helper()
	const d = 12
	w := make(linalg.Vector, d)
	w[0], w[1], w[2] = 1, 800, 0.25
	type row struct {
		y   float64
		idx []int32
		val []float64
	}
	rows := []row{
		{0, []int32{0, 3, 5}, []float64{0.7, -1.2, 2}},               // label 0: hinge active at coefficient -0
		{math.Copysign(0, -1), []int32{0, 4}, []float64{-0.3, 1.5}},  // label -0: hinge active at coefficient +0
		{1, []int32{0}, []float64{1}},                                // y·m == 1 exactly: hinge boundary, inactive
		{-1, []int32{0}, []float64{-1}},                              // the same from the other side
		{1, []int32{0}, []float64{math.Nextafter(1, 0)}},             // one ulp inside the active set
		{3, []int32{0, 6}, []float64{3, 9}},                          // exactly fit: least-squares coefficient 0, axpy still runs
		{1, []int32{1}, []float64{1}},                                // margin 800: logistic coefficient underflows to -0
		{-1, []int32{1}, []float64{1}},                               // y·m = -800: e^{y·m} underflows, coefficient exactly 1
		{-1, []int32{1, 7}, []float64{-1, 4}},                        // margin -800, y·m = 800: coefficient +0
		{1, []int32{0, 2, 8}, []float64{0.5, math.Inf(1), 1}},        // margin +Inf: hinge inactive, a 0·x term would poison slot 2
		{1, []int32{0, 9, 11}, []float64{math.NaN(), 1, 2}},          // NaN margin: inactive for hinge, propagates for the others
		{math.NaN(), []int32{0, 10}, []float64{1, 1}},                // NaN label
		{-1, []int32{0, 3, 10, 11}, []float64{0.2, -0.4, 0.6, -0.8}}, // an ordinary active row after the poison
		{1, []int32{0, 3, 10, 11}, []float64{2.5, -0.4, 0.6, -0.8}},  // and an ordinary inactive one
	}
	var b *data.MatrixBuilder
	if dense {
		b = data.NewDenseMatrixBuilder(len(rows), d)
	} else {
		b = data.NewMatrixBuilder(len(rows), 4*len(rows))
	}
	for _, r := range rows {
		var err error
		if dense {
			vals := make([]float64, d)
			for k, i := range r.idx {
				vals[i] = r.val[k]
			}
			err = b.AppendDense(r.y, vals)
		} else {
			err = b.AppendSparse(r.y, r.idx, r.val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return w, b.Build()
}

// checkBlockMatchesRows asserts the BlockGradient contract on one block:
// AddGradientBlock equals per-row AddGradient accumulation and LossBlock
// equals per-row Loss accumulation, bit for bit, into accumulators seeded
// with the same garbage — nonzero so order-of-addition differences cannot
// hide, and with a -0 slot so a skipped axpy and a 0·x one cannot pass for
// each other.
func checkBlockMatchesRows(t *testing.T, rng *rand.Rand, g Gradient, w linalg.Vector, blk data.Block, tag string) {
	t.Helper()
	bg, ok := g.(BlockGradient)
	if !ok {
		t.Fatalf("%s does not implement BlockGradient", g.Name())
	}
	gradRow := make(linalg.Vector, len(w))
	for i := range gradRow {
		gradRow[i] = rng.NormFloat64()
	}
	gradRow[0], gradRow[6] = math.Copysign(0, -1), math.Copysign(0, -1)
	gradBlk := gradRow.Clone()
	sumRow := rng.NormFloat64()
	sumBlk := sumRow

	for j := 0; j < blk.Len(); j++ {
		u := blk.Row(j)
		g.AddGradient(w, u, gradRow)
		sumRow += g.Loss(w, u)
	}
	margins := make([]float64, blk.Len())
	bg.AddGradientBlock(w, blk, margins, gradBlk)
	bg.LossBlock(w, blk, margins, &sumBlk)

	for i := range gradRow {
		if !sameBits(gradRow[i], gradBlk[i]) {
			t.Fatalf("%s %s: grad[%d] %g != %g", g.Name(), tag, i, gradBlk[i], gradRow[i])
		}
	}
	if !sameBits(sumRow, sumBlk) {
		t.Fatalf("%s %s: loss sum %g != %g", g.Name(), tag, sumBlk, sumRow)
	}
}

// sameBits is bitwise equality, except that any NaN equals any NaN: which of
// two NaN operands lends its payload to a product depends on the operand
// order the compiler picked for that loop, which no contract pins.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// Every stock loss — and the test-only squared hinge, which brings nothing
// but its two scalar functions — must satisfy the BlockGradient contract bit
// for bit: AddGradientBlock equals per-row AddGradient accumulation (into an
// already nonzero buffer), LossBlock equals per-row Loss accumulation into an
// already nonzero sum — on the fused dense path, the fused CSR path and the
// per-row fallback of a non-contiguous gathered block, over random rows and
// over the hand-built edge rows of blockEdgeInputs.
func TestBlockKernelsMatchRowKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 12
	losses := []Gradient{Hinge{}, Logistic{}, LeastSquares{}, sqHinge{}}
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, g := range losses {
		for _, dense := range []bool{true, false} {
			m := blockTestMatrix(t, rng, dense, 64, d)
			blocks := []data.Block{
				m.Block(0, 64),                         // fused full arena
				m.Block(5, 18),                         // fused partial
				m.GatherBlock([]int{33, 7, 7, 50, 12}), // per-row fallback
			}
			for bi, blk := range blocks {
				checkBlockMatchesRows(t, rng, g, w, blk, fmt.Sprintf("dense=%v block %d", dense, bi))
			}

			we, me := blockEdgeInputs(t, dense)
			n := me.NumRows()
			edges := []data.Block{
				me.Block(0, n), // every edge row, in order
				me.Block(0, 9), // the finite ones only
				me.Block(2, 3), // a one-row block on the hinge boundary
				me.GatherBlock([]int{12, 5, 0, 0, 9, 2, 13}), // gathered, non-contiguous, with a repeat
			}
			for bi, blk := range edges {
				checkBlockMatchesRows(t, rng, g, we, blk, fmt.Sprintf("dense=%v edge block %d", dense, bi))
			}
		}
	}
}

// ObjectiveMatrix must agree with Objective bit for bit, block-kernel path
// and fallback alike.
func TestObjectiveMatrixMatchesObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const d = 10
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	reg := L2{Lambda: 0.3}
	for _, g := range []Gradient{Hinge{}, Logistic{}, LeastSquares{}, sqHinge{}} {
		for _, dense := range []bool{true, false} {
			m := blockTestMatrix(t, rng, dense, 700, d) // > one objective block
			want := Objective(g, reg, w, m.Rows())
			got := ObjectiveMatrix(g, reg, w, m)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s dense=%v: ObjectiveMatrix %g != Objective %g", g.Name(), dense, got, want)
			}
		}
	}
}

// TestSIMDHingeActiveRunsBitwise drives the dense exact accumulate's run
// split — hinge hands DenseAccum the runs of active rows between inactive
// ones — through all-active, all-inactive, alternating and uneven-run
// blocks, with the SIMD backend on and off. Every inactive row carries a
// +Inf feature, so one that touched the accumulator would show as NaN. The
// exact block must equal per-row AddGradient bit for bit, and the fast
// block must stay within the tier epsilon of it.
func TestSIMDHingeActiveRunsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n, d = 23, 13
	patterns := map[string]func(j int) bool{
		"all active":  func(int) bool { return true },
		"none active": func(int) bool { return false },
		"alternating": func(j int) bool { return j%2 == 0 },
		"uneven runs": func(j int) bool { return j%7 < 5 },
	}
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = 0.1
	}
	for name, active := range patterns {
		for _, dense := range []bool{true, false} {
			var b *data.MatrixBuilder
			if dense {
				b = data.NewDenseMatrixBuilder(n, d)
			} else {
				b = data.NewMatrixBuilder(n, n*d)
			}
			idx := make([]int32, d)
			x := make([]float64, d)
			for j := 0; j < n; j++ {
				for i := range x {
					idx[i] = int32(i)
					if active(j) {
						x[i] = 0.1 * rng.NormFloat64() // |y·m| ≪ 1
					} else {
						x[i] = 1 + rng.Float64() // y·m > 1
					}
				}
				if !active(j) {
					x[j%d] = math.Inf(1)
				}
				var err error
				if dense {
					err = b.AppendDense(1, x)
				} else {
					err = b.AppendSparse(1, idx, x)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			blk := b.Build().Block(0, n)
			for _, simd := range []bool{true, false} {
				prev := linalg.SetSIMD(simd)
				tag := fmt.Sprintf("%s dense=%v simd=%v", name, dense, linalg.SIMDEnabled())
				checkBlockMatchesRows(t, rng, Hinge{}, w, blk, tag)

				margins := make([]float64, n)
				exact := make(linalg.Vector, d)
				fast := make(linalg.Vector, d)
				Hinge{}.AddGradientBlock(w, blk, margins, exact)
				Hinge{}.AddGradientBlockFast(w, blk, margins, fast)
				linalg.SetSIMD(prev)
				for i := range exact {
					if diff := fastRelDiff(exact[i], fast[i]); !(diff <= fastKernelEps) {
						t.Fatalf("%s: fast grad[%d] %g, exact %g", tag, i, fast[i], exact[i])
					}
				}
			}
		}
	}
}
