package gradients

import (
	"math"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
	"ml4all/internal/linalg/cpu"
)

// sqHinge is a fourth loss, the squared hinge max(0, 1-y·m)², declared the
// way a stock loss is: a name, Ops, two scalar functions and the two loops
// over them. It has no kernel of its own, so every suite it passes
// (TestBlockKernelsMatchRowKernelsBitwise, the fast-tier epsilon suites)
// it passes on the pipeline's kernels alone.
type sqHinge struct{ glm[sqHinge] }

func (sqHinge) Name() string        { return "sqhinge" }
func (sqHinge) Ops(nnz int) float64 { return float64(2 * nnz) }
func (sqHinge) skipsInactive() bool { return false }

func (sqHinge) coeff(y, m float64) float64 {
	if v := 1 - y*m; v > 0 {
		return -2 * y * v
	}
	return 0
}

func (sqHinge) value(y, m float64) float64 {
	if v := 1 - y*m; v > 0 {
		return v * v
	}
	return 0
}

func (l sqHinge) coeffs(y, m []float64) {
	for j := range m {
		m[j] = l.coeff(y[j], m[j])
	}
}

func (l sqHinge) values(y, m []float64) {
	for j := range m {
		m[j] = l.value(y[j], m[j])
	}
}

func TestSquaredHingeGradientMatchesLoss(t *testing.T) { checkGradientMatchesLoss(t, sqHinge{}, false) }

// fmaProbe is a package variable so the compiler cannot fold the probe below
// at build time.
var fmaProbe = [3]float64{1 + 0x1p-30, 1 - 0x1p-30, -1}

// fmaContracts reports whether this binary's compiler fuses a*b+c into one
// rounding (GOAMD64=v3, arm64): the explicit conversion forbids the fusion
// on the right-hand side only.
func fmaContracts() bool {
	a, b, c := fmaProbe[0], fmaProbe[1], fmaProbe[2]
	return a*b+c != float64(a*b)+c
}

// Row and block paths share the scalar functions, so they agree with each
// other by construction and the lattice cannot see a function that changed —
// or a row that is skipped where it used to contribute ±0·x. This pins the
// functions and the skip rule to the bits the hand-expanded kernels before
// the pipeline produced (parentScalarBits): through the row path, through a
// one-row block, and through the scalar functions called directly.
func TestScalarFunctionsMatchParentBits(t *testing.T) {
	if !cpu.Detected.FMA || fmaContracts() {
		// The table is one platform's bits: amd64 code that rounds after
		// every multiply, on a CPU where math.Exp takes its FMA path.
		t.Skip("table generated on amd64 (GOAMD64=v1, FMA-capable CPU); this binary or CPU rounds differently")
	}
	negZero := math.Copysign(0, -1)
	for _, e := range parentScalarBits {
		y, m := math.Float64frombits(e[0]), math.Float64frombits(e[1])
		b := data.NewDenseMatrixBuilder(1, 2)
		if err := b.AppendDense(y, []float64{1, -1}); err != nil {
			t.Fatal(err)
		}
		mat := b.Build()
		u, w := mat.Row(0), linalg.Vector{m, 0}
		mg := u.Dot(w)
		for li, l := range []struct {
			g            BlockGradient
			coeff, value float64
			skips        bool
		}{
			{Hinge{}, Hinge{}.coeff(y, mg), Hinge{}.value(y, mg), Hinge{}.skipsInactive()},
			{Logistic{}, Logistic{}.coeff(y, mg), Logistic{}.value(y, mg), Logistic{}.skipsInactive()},
			{LeastSquares{}, LeastSquares{}.coeff(y, mg), LeastSquares{}.value(y, mg), LeastSquares{}.skipsInactive()},
		} {
			want := e[2+3*li:]
			gradRow := linalg.Vector{negZero, negZero}
			l.g.AddGradient(w, u, gradRow)
			gradBlk, sumBlk, margins := linalg.Vector{negZero, negZero}, 0.0, make([]float64, 1)
			l.g.AddGradientBlock(w, mat.Block(0, 1), margins, gradBlk)
			l.g.LossBlock(w, mat.Block(0, 1), margins, &sumBlk)
			direct := linalg.Vector{negZero, negZero}
			if !(l.skips && math.IsNaN(l.coeff)) {
				direct[0] += l.coeff * 1
				direct[1] += l.coeff * -1
			}
			for what, got := range map[string]linalg.Vector{"AddGradient": gradRow, "AddGradientBlock": gradBlk, "coeff": direct} {
				for i := range got {
					if !sameBits(got[i], math.Float64frombits(want[i])) {
						t.Errorf("%s y=%g m=%g: %s leaves grad[%d] = %#016x, parent left %#016x", l.g.Name(), y, m, what, i, math.Float64bits(got[i]), want[i])
					}
				}
			}
			for what, got := range map[string]float64{"Loss": l.g.Loss(w, u), "LossBlock": sumBlk, "value": l.value} {
				if !sameBits(got, math.Float64frombits(want[2])) {
					t.Errorf("%s y=%g m=%g: %s gives %#016x, parent gave %#016x", l.g.Name(), y, m, what, math.Float64bits(got), want[2])
				}
			}
		}
	}
}
