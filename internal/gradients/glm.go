package gradients

import (
	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// The GLM kernel pipeline. Every gradient of the paper's Table 3 has one
// shape, ∇f_i(w) = coeff(y_i, <x_i, w>)·x_i, so a loss supplies two scalar
// functions of (label, margin) and embeds glm, which owns the rest, once
// per tier:
//
//	per row      margin → coeff → axpy
//	exact block  margins → coeffs IN PLACE → DenseAccum / sparse axpy
//	fast block   fast margins → coeffs IN PLACE → DenseAccumFast / sparse axpy
//
// Exact is bit-exact by construction: every margin is an independent
// single-accumulator dot (the rounding of Row.Dot), the scalar functions
// are the ones the row path calls, and the accumulate touches the shared
// buffer strictly in row order — the float summation order, and with it
// every result bit, is that of one AddGradient/Loss call per row. The
// coefficients overwrite the margins because a margin is dead once its
// coefficient exists: one scratch buffer per block, still in cache when the
// accumulate streams it. Fast trades the guarantee for speed (FastGradient).

// loss is what a stock loss supplies: coeff and value, the gradient
// coefficient and the loss at label y and margin m, and coeffs and values,
// which overwrite each m[j] with coeff / value of (y[j], m[j]). The
// whole-buffer forms exist because all three losses are struct{} — one GC
// shape — so glm's generic bodies reach L's methods through a dictionary:
// an indirect call, paid once per block this way and not once per row.
type loss interface {
	coeff(y, m float64) float64
	value(y, m float64) float64
	coeffs(y, m []float64)
	values(y, m []float64)
	// skipsInactive reports that coeff marks a row outside the loss's
	// active set with NaN and that such a row never touches the
	// accumulator, on either tier — not even as a 0·x term, which resets a
	// −0 accumulator slot and turns a non-finite feature into NaN. Only
	// hinge has an active set; the others run their axpy whatever the
	// coefficient, zero and NaN included.
	skipsInactive() bool
}

// fastPasses is the optional per-loss override of the fast tier's passes:
// coeffsFast replaces coeffs, lossSumFast replaces values plus the pairwise
// sum. Logistic routes its exponentials through linalg.ExpFastVec with it.
type fastPasses interface {
	coeffsFast(y, m []float64)
	lossSumFast(y, m []float64) float64
}

// glm implements Gradient, BlockGradient and FastGradient for the loss L.
type glm[L loss] struct{}

// AddGradient implements Gradient.
func (glm[L]) AddGradient(w linalg.Vector, u data.Row, grad linalg.Vector) {
	var l L
	c := l.coeff(u.Label, u.Dot(w))
	if c != c && l.skipsInactive() {
		return
	}
	u.AddScaledInto(grad, c)
}

// Loss implements Gradient.
func (glm[L]) Loss(w linalg.Vector, u data.Row) float64 {
	var l L
	return l.value(u.Label, u.Dot(w))
}

// AddGradientBlock implements BlockGradient.
func (g glm[L]) AddGradientBlock(w linalg.Vector, rows data.Block, margins []float64, grad linalg.Vector) {
	labels, ok := rows.Labels()
	if !ok {
		// Nothing to hoist in a gathered block: it is the row path.
		for j, n := 0, rows.Len(); j < n; j++ {
			g.AddGradient(w, rows.Row(j), grad)
		}
		return
	}
	var l L
	margins = margins[:rows.Len()]
	rows.MarginsInto(w, margins)
	l.coeffs(labels, margins)
	accumulate(rows, margins, grad, l.skipsInactive(), false)
}

// LossBlock implements BlockGradient. It adds one row at a time into the
// running sum, never a pre-reduced block total: that is what keeps *sum
// bitwise equal to per-row accumulation when it arrives nonzero.
func (g glm[L]) LossBlock(w linalg.Vector, rows data.Block, margins []float64, sum *float64) {
	s := *sum
	if labels, ok := rows.Labels(); ok {
		var l L
		margins = margins[:rows.Len()]
		rows.MarginsInto(w, margins)
		l.values(labels, margins)
		for _, v := range margins {
			s += v
		}
	} else {
		for j, n := 0, rows.Len(); j < n; j++ {
			s += g.Loss(w, rows.Row(j))
		}
	}
	*sum = s
}

// AddGradientBlockFast implements FastGradient. A gathered block is
// dominated by the gather itself, so it goes to the exact kernel.
func (g glm[L]) AddGradientBlockFast(w linalg.Vector, rows data.Block, margins []float64, grad linalg.Vector) {
	var l L
	labels, ok := rows.Labels()
	if !ok {
		g.AddGradientBlock(w, rows, margins, grad)
		return
	}
	margins = margins[:rows.Len()]
	rows.MarginsIntoFast(w, margins)
	if f, ok := any(l).(fastPasses); ok {
		f.coeffsFast(labels, margins)
	} else {
		l.coeffs(labels, margins)
	}
	accumulate(rows, margins, grad, l.skipsInactive(), true)
}

// LossBlockFast implements FastGradient: two independent partial sums.
func (g glm[L]) LossBlockFast(w linalg.Vector, rows data.Block, margins []float64, sum *float64) {
	var l L
	labels, ok := rows.Labels()
	if !ok {
		g.LossBlock(w, rows, margins, sum)
		return
	}
	margins = margins[:rows.Len()]
	rows.MarginsIntoFast(w, margins)
	if f, ok := any(l).(fastPasses); ok {
		*sum += f.lossSumFast(labels, margins)
		return
	}
	l.values(labels, margins)
	var s0, s1 float64
	j := 0
	for ; j+2 <= len(margins); j += 2 {
		s0 += margins[j]
		s1 += margins[j+1]
	}
	if j < len(margins) {
		s0 += margins[j]
	}
	*sum += s0 + s1
}

// accumulate folds coeffs[j]·row_j into grad in row order over a contiguous
// block's geometry, strided dense or CSR. With skipNaN, rows whose
// coefficient is NaN are left out (see loss.skipsInactive): the dense
// kernel takes the runs of rows between them. fast picks DenseAccumFast
// for the dense kernel; sparse rows touch disjoint slots, so there is
// nothing to fuse and both tiers share the CSR axpy.
func accumulate(rows data.Block, coeffs []float64, grad linalg.Vector, skipNaN, fast bool) {
	if vals, stride, ok := rows.DenseRows(); ok {
		if !skipNaN {
			denseAccum(grad, vals, stride, coeffs, fast)
			return
		}
		for lo := 0; lo < len(coeffs); {
			if c := coeffs[lo]; c != c {
				lo++
				continue
			}
			hi := lo + 1
			for hi < len(coeffs) && coeffs[hi] == coeffs[hi] {
				hi++
			}
			denseAccum(grad, vals[lo*stride:], stride, coeffs[lo:hi], fast)
			lo = hi
		}
		return
	}
	offs, idx, vals, _ := rows.CSRRows()
	for j, c := range coeffs {
		if c != c && skipNaN {
			continue
		}
		lo, hi := offs[j], offs[j+1]
		linalg.SparseAddScaledInto(grad, c, idx[lo:hi], vals[lo:hi])
	}
}

func denseAccum(grad linalg.Vector, vals []float64, stride int, coeffs []float64, fast bool) {
	if fast {
		linalg.DenseAccumFast(grad, vals, stride, coeffs)
	} else {
		linalg.DenseAccum(grad, vals, stride, coeffs)
	}
}
