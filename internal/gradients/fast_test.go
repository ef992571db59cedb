package gradients

import (
	"math"
	"math/rand"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// fastKernelEps bounds fast-vs-exact disagreement at the gradients layer:
// reassociated sums plus the < 1e-8 ExpFast relative error, accumulated over
// one block — comfortably under 1e-7 on O(10) magnitudes.
const fastKernelEps = 1e-7

func fastRelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFastBlockKernelsMatchExactWithinEps runs every stock loss's fast block
// kernels against the exact ones on dense and CSR blocks, including block
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
				sumExact := rng.NormFloat64()
				sumFast := sumExact

				margins := make([]float64, blk.Len())
				fg.AddGradientBlock(w, blk, margins, gradExact)
				fg.LossBlock(w, blk, margins, &sumExact)
				fg.AddGradientBlockFast(w, blk, margins, gradFast)
				fg.LossBlockFast(w, blk, margins, &sumFast)

				for i := range gradExact {
					if diff := fastRelDiff(gradExact[i], gradFast[i]); diff > fastKernelEps {
						t.Fatalf("%s dense=%v block %d: grad[%d] exact %g fast %g (rel err %.3g)",
							g.Name(), dense, bi, i, gradExact[i], gradFast[i], diff)
					}
				}
				if diff := fastRelDiff(sumExact, sumFast); diff > fastKernelEps {
					t.Fatalf("%s dense=%v block %d: loss exact %g fast %g (rel err %.3g)",
						g.Name(), dense, bi, sumExact, sumFast, diff)
				}
			}
		}
	}
}

// TestFastKernelsHugeMargins drives the logistic kernels through the ExpFast
// clamp regions: a weight vector scaled so y·margin spans the overflow
// (coefficient → 0, loss → linear switch) and underflow (coefficient → -y)
// ends of the exponential. The exact and fast tiers must still agree — the
// logistic loss itself saturates, so the clamps are invisible at the loss
// level.
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
			var sumExact, sumFast float64
			fg.AddGradientBlock(w, blk, margins, gradExact)
			fg.LossBlock(w, blk, margins, &sumExact)
			fg.AddGradientBlockFast(w, blk, margins, gradFast)
			fg.LossBlockFast(w, blk, margins, &sumFast)
			for i := range gradExact {
				if diff := fastRelDiff(gradExact[i], gradFast[i]); diff > fastKernelEps {
					t.Fatalf("%s scale=%g: grad[%d] exact %g fast %g (rel err %.3g)",
						g.Name(), scale, i, gradExact[i], gradFast[i], diff)
				}
			}
			if diff := fastRelDiff(sumExact, sumFast); diff > fastKernelEps {
				t.Fatalf("%s scale=%g: loss exact %g fast %g (rel err %.3g)",
					g.Name(), scale, sumExact, sumFast, diff)
			}
		}
	}
}

// TestFastKernelsAllInactiveHinge pins the zero-coefficient block: a hinge
// block where every row satisfies the margin produces an all-zero coefficient
// buffer, and the fused accumulate must leave the gradient bitwise untouched
// (0·x terms cannot perturb it — x is finite by construction).
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
