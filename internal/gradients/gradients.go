// Package gradients implements the loss functions and gradient functions of
// the paper's Table 3 — SVM (hinge), logistic regression and linear
// regression (least squares) — plus the L2 regularizer used throughout the
// evaluation. Gradients accumulate into a caller-provided buffer so that
// batch computation does not allocate per point.
package gradients

import (
	"fmt"
	"math"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// Gradient computes per-point losses and gradient contributions.
//
// AddGradient accumulates ∇f_i(w) for point u into grad (which has the model
// dimensionality). Loss returns f_i(w). Ops reports the approximate number of
// multiply-add operations one AddGradient call performs for a point with nnz
// stored values; the cluster simulator charges CPU time with it.
type Gradient interface {
	AddGradient(w linalg.Vector, u data.Row, grad linalg.Vector)
	Loss(w linalg.Vector, u data.Row) float64
	Ops(nnz int) float64
	Name() string
}

// ForTask returns the paper's default gradient for a task (Table 3).
func ForTask(t data.TaskKind) Gradient {
	switch t {
	case data.TaskSVM:
		return Hinge{}
	case data.TaskLogisticRegression:
		return Logistic{}
	case data.TaskLinearRegression:
		return LeastSquares{}
	default:
		panic(fmt.Sprintf("gradients: unknown task %v", t))
	}
}

// BlockGradient is the batched extension of Gradient: one call per block
// instead of one per row, bitwise identical to AddGradient/Loss called row
// by row in block order — into an accumulator or sum that may already be
// nonzero. margins is caller-owned scratch with at least rows.Len() slots;
// its contents are overwritten. The stock losses implement it through the
// glm pipeline; custom Gradient UDFs that do not are executed row by row by
// the engine's fallback path transparently.
type BlockGradient interface {
	Gradient
	AddGradientBlock(w linalg.Vector, rows data.Block, margins []float64, grad linalg.Vector)
	LossBlock(w linalg.Vector, rows data.Block, margins []float64, sum *float64)
}

// FastGradient is the fast-math extension of BlockGradient (the opt-in
// engine.Options.FastMath tier): the same block contract, tolerance-bounded
// instead of bit-exact. Custom BlockGradient UDFs without it stay on their
// exact kernels even when the fast tier is on.
type FastGradient interface {
	BlockGradient
	AddGradientBlockFast(w linalg.Vector, rows data.Block, margins []float64, grad linalg.Vector)
	LossBlockFast(w linalg.Vector, rows data.Block, margins []float64, sum *float64)
}

// Hinge is the SVM gradient of Table 3:
//
//	g(w, x, y) = -y*x if y*wᵀx < 1, else 0.
type Hinge struct{ glm[Hinge] }

// Name returns "hinge".
func (Hinge) Name() string { return "hinge" }

// Ops implements Gradient: one dot plus one axpy.
func (Hinge) Ops(nnz int) float64 { return float64(2 * nnz) }

// coeff is -y on the active set y·m < 1. Off it the row contributes
// nothing, marked NaN — a value -y cannot take where y·m < 1 held.
func (Hinge) coeff(y, m float64) float64 {
	if y*m < 1 {
		return -y
	}
	return math.NaN()
}

// value is the hinge loss max(0, 1-y·m); a NaN margin propagates.
func (Hinge) value(y, m float64) float64 {
	v := 1 - y*m
	if v < 0 {
		return 0
	}
	return v
}

func (Hinge) skipsInactive() bool { return true }

func (l Hinge) coeffs(y, m []float64) {
	for j := range m {
		m[j] = l.coeff(y[j], m[j])
	}
}

func (l Hinge) values(y, m []float64) {
	for j := range m {
		m[j] = l.value(y[j], m[j])
	}
}

// Logistic is the logistic-regression gradient of Table 3:
//
//	g(w, x, y) = (-1 / (1 + e^{y*wᵀx})) * y * x.
type Logistic struct{ glm[Logistic] }

// Name returns "logistic".
func (Logistic) Name() string { return "logistic" }

// Ops implements Gradient.
func (Logistic) Ops(nnz int) float64 { return float64(2*nnz) + 8 }

func (Logistic) coeff(y, m float64) float64 { return -y / (1 + math.Exp(y*m)) }

// value is the log loss log(1 + e^{-y·m}), computed stably.
func (Logistic) value(y, m float64) float64 {
	z := -y * m
	// log(1+e^z) = z + log(1+e^-z) for large z avoids overflow.
	if z > 35 {
		return z
	}
	return math.Log1p(math.Exp(z))
}

func (Logistic) skipsInactive() bool { return false }

func (l Logistic) coeffs(y, m []float64) {
	for j := range m {
		m[j] = l.coeff(y[j], m[j])
	}
}

func (l Logistic) values(y, m []float64) {
	for j := range m {
		m[j] = l.value(y[j], m[j])
	}
}

// coeffsFast implements fastPasses: the sigmoid coefficient in three
// whole-buffer passes so the exponential runs through linalg.ExpFastVec —
// four lanes per step on SIMD backends, and operation for operation the
// scalar loop (hence bitwise identical to it) on the portable fast tier.
func (Logistic) coeffsFast(y, m []float64) {
	for j := range m {
		m[j] *= y[j]
	}
	linalg.ExpFastVec(m, m)
	for j, e := range m {
		m[j] = -y[j] / (1 + e)
	}
}

// lossSumFast implements fastPasses: value with the exponential vectorized
// chunk-wise through two fixed stack buffers (z must survive the exp for
// the switch, and the margin buffer is the only caller scratch), keeping
// the path allocation-free.
func (Logistic) lossSumFast(y, m []float64) float64 {
	var zbuf, ebuf [128]float64
	var s float64
	for base := 0; base < len(m); base += len(zbuf) {
		mc := m[base:min(len(m), base+len(zbuf))]
		z := zbuf[:len(mc)]
		for j := range mc {
			z[j] = -y[base+j] * mc[j]
		}
		e := ebuf[:len(z)]
		linalg.ExpFastVec(e, z)
		for j, zj := range z {
			if zj > 35 {
				// e^z would still be finite here, but log1p(e^z) = z to
				// double precision and the linear form matches value's
				// overflow-proof switch.
				s += zj
			} else {
				s += math.Log1p(e[j])
			}
		}
	}
	return s
}

// LeastSquares is the linear-regression gradient of Table 3:
//
//	g(w, x, y) = 2*(wᵀx - y)*x.
type LeastSquares struct{ glm[LeastSquares] }

// Name returns "leastsquares".
func (LeastSquares) Name() string { return "leastsquares" }

// Ops implements Gradient.
func (LeastSquares) Ops(nnz int) float64 { return float64(2 * nnz) }

// coeff is twice the residual. It is zero for an exactly-fit row; the axpy
// still runs.
func (LeastSquares) coeff(y, m float64) float64 { return 2 * (m - y) }

// value is the squared error (m - y)².
func (LeastSquares) value(y, m float64) float64 {
	r := m - y
	return r * r
}

func (LeastSquares) skipsInactive() bool { return false }

func (l LeastSquares) coeffs(y, m []float64) {
	for j := range m {
		m[j] = l.coeff(y[j], m[j])
	}
}

func (l LeastSquares) values(y, m []float64) {
	for j := range m {
		m[j] = l.value(y[j], m[j])
	}
}

// L2 is the squared-norm regularizer R(w) = (lambda/2)*||w||², the paper's
// default for its classification workloads. Lambda == 0 disables it.
type L2 struct{ Lambda float64 }

// AddGradient adds lambda*w into grad (applied once per batch, not per
// point).
func (r L2) AddGradient(w, grad linalg.Vector) {
	if r.Lambda == 0 {
		return
	}
	grad.AddScaled(r.Lambda, w)
}

// Penalty returns (lambda/2)*||w||².
func (r L2) Penalty(w linalg.Vector) float64 {
	if r.Lambda == 0 {
		return 0
	}
	n := w.Norm2()
	return r.Lambda / 2 * n * n
}

// Objective evaluates the full regularized objective
// f(w) = (1/n)·Σ loss_i(w) + R(w) over the given rows, one Loss call each:
// the reference ObjectiveMatrix must agree with.
func Objective(g Gradient, reg L2, w linalg.Vector, rows []data.Row) float64 {
	if len(rows) == 0 {
		return reg.Penalty(w)
	}
	var s float64
	for _, u := range rows {
		s += g.Loss(w, u)
	}
	return s/float64(len(rows)) + reg.Penalty(w)
}

// MeanGradient computes the regularized mean gradient over rows into grad
// (zeroing it first). It is the reference the distributed plans must agree
// with; tests compare plan execution against it.
func MeanGradient(g Gradient, reg L2, w linalg.Vector, rows []data.Row, grad linalg.Vector) {
	grad.Zero()
	for _, u := range rows {
		g.AddGradient(w, u, grad)
	}
	if n := len(rows); n > 0 {
		grad.Scale(1 / float64(n))
	}
	reg.AddGradient(w, grad)
}

// ObjectiveMatrix is Objective over every row of m through the blocked loss
// kernels, bitwise identical to it. The block width only affects speed.
func ObjectiveMatrix(g Gradient, reg L2, w linalg.Vector, m *data.Matrix) float64 {
	bg, ok := g.(BlockGradient)
	n := m.NumRows()
	if !ok || n == 0 {
		return Objective(g, reg, w, m.Rows())
	}
	var s float64
	margins := make([]float64, data.DefaultBlockSize)
	for lo := 0; lo < n; lo += len(margins) {
		bg.LossBlock(w, m.Block(lo, min(lo+len(margins), n)), margins, &s)
	}
	return s/float64(n) + reg.Penalty(w)
}
