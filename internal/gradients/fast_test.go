package gradients

import (
	"math"
	"math/rand"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// fastKernelEps bounds fast-vs-exact disagreement at the gradients layer:
// reassociated dense margins and accumulates, carried through the
// coefficients over one block — comfortably under 1e-7 on O(10)
// magnitudes.
const fastKernelEps = 1e-7

func fastRelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFastBlockKernelsMatchExactWithinEps runs every stock loss's fast block
// gradient against the exact one on dense and CSR blocks, including block
// lengths not divisible by the accumulator width (13, 5) and the gathered
// non-contiguous geometry where the fast margins fall back to exact per-row
// dots.
func TestFastBlockKernelsMatchExactWithinEps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const d = 12
	losses := []Gradient{Hinge{}, Logistic{}, LeastSquares{}, sqHinge{}}
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, g := range losses {
		fg, ok := g.(FastGradient)
		if !ok {
			t.Fatalf("%s does not implement FastGradient", g.Name())
		}
		for _, dense := range []bool{true, false} {
			m := blockTestMatrix(t, rng, dense, 64, d)
			blocks := []data.Block{
				m.Block(0, 64),                         // full arena, multiple unrolled passes
				m.Block(5, 18),                         // 13 rows: tail of the 4-row accumulate
				m.Block(20, 25),                        // 5 rows: sub-unroll
				m.GatherBlock([]int{33, 7, 7, 50, 12}), // non-contiguous: exact margins
			}
			for bi, blk := range blocks {
				gradExact := make(linalg.Vector, d)
				for i := range gradExact {
					gradExact[i] = rng.NormFloat64()
				}
				gradFast := gradExact.Clone()

				margins := make([]float64, blk.Len())
				fg.AddGradientBlock(w, blk, margins, gradExact)
				fg.AddGradientBlockFast(w, blk, margins, gradFast)

				for i := range gradExact {
					if diff := fastRelDiff(gradExact[i], gradFast[i]); diff > fastKernelEps {
						t.Fatalf("%s dense=%v block %d: grad[%d] exact %g fast %g (rel err %.3g)",
							g.Name(), dense, bi, i, gradExact[i], gradFast[i], diff)
					}
				}
			}
		}
	}
}

// TestFastKernelsHugeMargins drives the fast block gradients through huge
// margins: a weight vector scaled so y·margin spans the overflow
// (coefficient → 0) and underflow (coefficient → -y) ends of the logistic
// exponential. The exact and fast tiers must still agree.
func TestFastKernelsHugeMargins(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const d = 8
	m := blockTestMatrix(t, rng, true, 32, d)
	blk := m.Block(0, 32)
	margins := make([]float64, blk.Len())
	for _, scale := range []float64{1e2, 1e4, 1e6} {
		w := make(linalg.Vector, d)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		for _, g := range []Gradient{Logistic{}, Hinge{}, LeastSquares{}, sqHinge{}} {
			fg := g.(FastGradient)
			gradExact := make(linalg.Vector, d)
			gradFast := make(linalg.Vector, d)
			fg.AddGradientBlock(w, blk, margins, gradExact)
			fg.AddGradientBlockFast(w, blk, margins, gradFast)
			for i := range gradExact {
				if diff := fastRelDiff(gradExact[i], gradFast[i]); diff > fastKernelEps {
					t.Fatalf("%s scale=%g: grad[%d] exact %g fast %g (rel err %.3g)",
						g.Name(), scale, i, gradExact[i], gradFast[i], diff)
				}
			}
		}
	}
}

// TestFastKernelsAllInactiveHinge pins the all-inactive block: a hinge block
// where every row satisfies the margin has no active row, so the fast
// accumulate must leave the gradient bitwise untouched.
func TestFastKernelsAllInactiveHinge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const d = 8
	b := data.NewDenseMatrixBuilder(16, d)
	vals := make([]float64, d)
	for i := 0; i < 16; i++ {
		for j := range vals {
			vals[j] = 1 + rng.Float64()
		}
		if err := b.AppendDense(1, vals); err != nil { // y=+1, all-positive rows
			t.Fatal(err)
		}
	}
	m := b.Build()
	blk := m.Block(0, 16)
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = 1 // margin = Σ row ≥ d·1 ≫ 1, every row inactive
	}
	grad := make(linalg.Vector, d)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	before := grad.Clone()
	margins := make([]float64, blk.Len())
	Hinge{}.AddGradientBlockFast(w, blk, margins, grad)
	for i := range grad {
		if math.Float64bits(grad[i]) != math.Float64bits(before[i]) {
			t.Fatalf("grad[%d] perturbed by all-inactive block: %g != %g", i, grad[i], before[i])
		}
	}
}

// TestFastHingeInactiveRowsNeverTouchAccumulator: an inactive hinge row
// contributes nothing on the fast tier either — not a 0·x term, which a
// non-finite feature turns into NaN. The block's middle row has y = +1,
// x₁ = +Inf and w₁ > 0, so y·m = +Inf and the row is inactive; the fast
// gradient must stay finite and within the tier epsilon of the exact one,
// on the dense kernel and the CSR one.
func TestFastHingeInactiveRowsNeverTouchAccumulator(t *testing.T) {
	w := linalg.Vector{0.5, 0.25, 0.125}
	rows := []struct {
		y float64
		x []float64
	}{
		{1, []float64{0.5, 0.5, -1}},
		{1, []float64{0, math.Inf(1), 1}},
		{-1, []float64{-0.25, 0.5, 1}},
	}
	for _, dense := range []bool{true, false} {
		var b *data.MatrixBuilder
		if dense {
			b = data.NewDenseMatrixBuilder(len(rows), len(w))
		} else {
			b = data.NewMatrixBuilder(len(rows), len(rows)*len(w))
		}
		for _, r := range rows {
			var err error
			if dense {
				err = b.AppendDense(r.y, r.x)
			} else {
				err = b.AppendSparse(r.y, []int32{0, 1, 2}, r.x)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		blk := b.Build().Block(0, len(rows))
		margins := make([]float64, blk.Len())
		exact := make(linalg.Vector, len(w))
		fast := make(linalg.Vector, len(w))
		Hinge{}.AddGradientBlock(w, blk, margins, exact)
		Hinge{}.AddGradientBlockFast(w, blk, margins, fast)
		if !exact.IsFinite() {
			t.Fatalf("dense=%v: exact gradient %v is not finite", dense, exact)
		}
		for i := range exact {
			if diff := fastRelDiff(exact[i], fast[i]); !(diff <= fastKernelEps) {
				t.Fatalf("dense=%v: fast gradient %v, exact %v", dense, fast, exact)
			}
		}
	}
}
