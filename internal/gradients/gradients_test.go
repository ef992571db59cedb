package gradients

import (
	"math"
	"math/rand"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// numericalGradient approximates ∇f(w) for the per-point loss by central
// differences, the ground truth the analytic gradients must match.
func numericalGradient(g Gradient, w linalg.Vector, u data.Row) linalg.Vector {
	const h = 1e-6
	grad := linalg.NewVector(len(w))
	for j := range w {
		wp, wm := w.Clone(), w.Clone()
		wp[j] += h
		wm[j] -= h
		grad[j] = (g.Loss(wp, u) - g.Loss(wm, u)) / (2 * h)
	}
	return grad
}

func randomDenseUnit(r *rand.Rand, d int, label float64) data.Row {
	v := make(linalg.Vector, d)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return data.NewDenseRow(label, v)
}

func checkGradientMatchesLoss(t *testing.T, g Gradient, smoothOnly bool) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	const d = 6
	for trial := 0; trial < 50; trial++ {
		label := 1.0
		if r.Float64() < 0.5 {
			label = -1
		}
		u := randomDenseUnit(r, d, label)
		w := make(linalg.Vector, d)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		if smoothOnly {
			// Hinge is non-differentiable at margin 1; skip the kink.
			if m := u.Label * u.Dot(w); math.Abs(m-1) < 1e-3 {
				continue
			}
		}
		analytic := linalg.NewVector(d)
		g.AddGradient(w, u, analytic)
		numeric := numericalGradient(g, w, u)
		if !analytic.Equal(numeric, 1e-4) {
			t.Fatalf("%s: analytic %v != numeric %v (w=%v u=%v)", g.Name(), analytic, numeric, w, u)
		}
	}
}

func TestHingeGradientMatchesLoss(t *testing.T)    { checkGradientMatchesLoss(t, Hinge{}, true) }
func TestLogisticGradientMatchesLoss(t *testing.T) { checkGradientMatchesLoss(t, Logistic{}, false) }
func TestLeastSquaresGradientMatchesLoss(t *testing.T) {
	checkGradientMatchesLoss(t, LeastSquares{}, false)
}

func TestHingeInactiveRegionHasZeroGradient(t *testing.T) {
	u := data.NewDenseRow(1, linalg.Vector{2, 0})
	w := linalg.Vector{1, 0} // margin = 2 >= 1
	grad := linalg.NewVector(2)
	Hinge{}.AddGradient(w, u, grad)
	if grad.Norm1() != 0 {
		t.Fatalf("gradient in inactive region = %v, want zeros", grad)
	}
	if got := (Hinge{}).Loss(w, u); got != 0 {
		t.Fatalf("loss in inactive region = %g, want 0", got)
	}
}

func TestLogisticLossStableForLargeMargins(t *testing.T) {
	u := data.NewDenseRow(-1, linalg.Vector{1})
	w := linalg.Vector{100}
	got := Logistic{}.Loss(w, u) // -y*wx = 100 => loss ~ 100
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("loss overflowed: %g", got)
	}
	if math.Abs(got-100) > 1e-6 {
		t.Fatalf("large-margin loss = %g, want ~100", got)
	}
}

func TestForTask(t *testing.T) {
	cases := []struct {
		task data.TaskKind
		want string
	}{
		{data.TaskSVM, "hinge"},
		{data.TaskLogisticRegression, "logistic"},
		{data.TaskLinearRegression, "leastsquares"},
	}
	for _, c := range cases {
		if got := ForTask(c.task).Name(); got != c.want {
			t.Errorf("ForTask(%v) = %s, want %s", c.task, got, c.want)
		}
	}
}

func TestL2Regularizer(t *testing.T) {
	w := linalg.Vector{3, 4}
	reg := L2{Lambda: 0.5}
	if got, want := reg.Penalty(w), 0.25*25.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Penalty = %g, want %g", got, want)
	}
	grad := linalg.NewVector(2)
	reg.AddGradient(w, grad)
	if !grad.Equal(linalg.Vector{1.5, 2}, 1e-12) {
		t.Fatalf("reg gradient = %v, want [1.5 2]", grad)
	}
	// Lambda zero is a no-op.
	grad2 := linalg.NewVector(2)
	(L2{}).AddGradient(w, grad2)
	if grad2.Norm1() != 0 || (L2{}).Penalty(w) != 0 {
		t.Fatal("zero-lambda regularizer not a no-op")
	}
}

func TestMeanGradientMatchesManualSum(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	units := make([]data.Row, 10)
	for i := range units {
		label := 1.0
		if i%2 == 0 {
			label = -1
		}
		units[i] = randomDenseUnit(r, 4, label)
	}
	w := linalg.Vector{0.1, -0.2, 0.3, 0.4}
	g := Logistic{}
	reg := L2{Lambda: 0.1}

	want := linalg.NewVector(4)
	for _, u := range units {
		g.AddGradient(w, u, want)
	}
	want.Scale(1.0 / 10)
	want.AddScaled(reg.Lambda, w)

	got := linalg.NewVector(4)
	MeanGradient(g, reg, w, units, got)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MeanGradient = %v, want %v", got, want)
	}
}

func TestObjectiveDecreasesAlongNegativeGradient(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	units := make([]data.Row, 50)
	for i := range units {
		label := 1.0
		if r.Float64() < 0.5 {
			label = -1
		}
		units[i] = randomDenseUnit(r, 5, label)
	}
	g := Logistic{}
	reg := L2{Lambda: 0.01}
	w := make(linalg.Vector, 5)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	before := Objective(g, reg, w, units)
	grad := linalg.NewVector(5)
	MeanGradient(g, reg, w, units, grad)
	w.AddScaled(-0.01, grad)
	after := Objective(g, reg, w, units)
	if after >= before {
		t.Fatalf("objective did not decrease: %g -> %g", before, after)
	}
}

func TestObjectiveEmptyUnits(t *testing.T) {
	w := linalg.Vector{1, 1}
	if got := Objective(Hinge{}, L2{Lambda: 1}, w, nil); math.Abs(got-1) > 1e-12 {
		t.Fatalf("empty objective = %g, want penalty 1", got)
	}
}

func TestSparseGradientMatchesDense(t *testing.T) {
	// A sparse row and its densification must produce identical gradients.
	su := data.NewSparseRow(1, []int32{0, 3}, []float64{1.5, -2})
	du := data.NewDenseRow(1, []float64{1.5, 0, 0, -2, 0})
	w := linalg.Vector{0.1, 0.2, 0.3, -0.4, 0.5}
	for _, g := range []Gradient{Hinge{}, Logistic{}, LeastSquares{}} {
		gs, gd := linalg.NewVector(5), linalg.NewVector(5)
		g.AddGradient(w, su, gs)
		g.AddGradient(w, du, gd)
		if !gs.Equal(gd, 1e-12) {
			t.Errorf("%s: sparse %v != dense %v", g.Name(), gs, gd)
		}
		if ls, ld := g.Loss(w, su), g.Loss(w, du); math.Abs(ls-ld) > 1e-12 {
			t.Errorf("%s: sparse loss %g != dense loss %g", g.Name(), ls, ld)
		}
	}
}
