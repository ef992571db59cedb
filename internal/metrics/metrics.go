// Package metrics evaluates trained models the way the paper's Section 8.5
// does: apply the weight vector to each test example, compare the produced
// label against ground truth, and report the mean square error (plus
// accuracy for classification, which the paper discusses but does not plot).
package metrics

import (
	"fmt"
	"sync"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// Predict returns the label the model assigns to one unit: the sign (±1) for
// classification tasks, the raw score for regression.
func Predict(task data.TaskKind, w linalg.Vector, u data.Row) float64 {
	return PredictScore(task, u.Dot(w))
}

// PredictScore maps a raw score <x, w> to the predicted label — the decision
// rule shared by the per-row and blocked evaluation paths.
func PredictScore(task data.TaskKind, score float64) float64 {
	if task == data.TaskLinearRegression {
		return score
	}
	if score >= 0 {
		return 1
	}
	return -1
}

// Report summarizes model quality on a test set.
type Report struct {
	N        int
	MSE      float64 // mean square error of predicted vs. true labels
	Accuracy float64 // fraction of exact label matches (classification)
}

// evalBlockSize is the row-block width Evaluate scores with; it only affects
// speed — the squared-error sum accumulates one row at a time in row order
// either way, so the report is bitwise independent of the width.
const evalBlockSize = data.DefaultBlockSize

// marginPool recycles the per-call block scratch of the scoring loops. A
// 4KiB buffer per ScoresInto call is irrelevant offline but is the dominant
// per-request garbage of the serving hot path, where thousands of small
// predict calls each score a handful of rows — pooled, the steady-state
// scoring path allocates nothing. Every block pass overwrites the slots it
// reads (MarginsInto writes out[:n] unconditionally), so reuse cannot leak
// stale margins.
var marginPool = sync.Pool{New: func() any {
	b := make([]float64, evalBlockSize)
	return &b
}}

// ScoresInto fills out[i] with the raw margin <row i, w> for every row of m,
// computed in blocked kernel passes — the same MarginsInto path Evaluate
// scores through, so a row's margin is bitwise identical whether it arrives
// in a dataset file or a serving request. out must have at least NumRows
// slots; only the first NumRows are written.
func ScoresInto(w linalg.Vector, m *data.Matrix, out []float64) {
	n := m.NumRows()
	out = out[:n]
	mp := marginPool.Get().(*[]float64)
	defer marginPool.Put(mp)
	margins := *mp
	for lo := 0; lo < n; lo += evalBlockSize {
		hi := min(lo+evalBlockSize, n)
		blk := m.Block(lo, hi)
		blk.MarginsInto(w, margins)
		copy(out[lo:hi], margins[:hi-lo])
	}
}

// ScoresIntoFast is the fast-math tier's ScoresInto: margins through the
// multi-accumulator kernels (Block.MarginsIntoFast), agreeing with
// ScoresInto only to a relative tolerance. Classification predictions can
// flip for rows whose margin sits within that tolerance of zero — callers
// serving hard-threshold decisions at scale accept that when they opt in.
func ScoresIntoFast(w linalg.Vector, m *data.Matrix, out []float64) {
	n := m.NumRows()
	out = out[:n]
	mp := marginPool.Get().(*[]float64)
	defer marginPool.Put(mp)
	margins := *mp
	for lo := 0; lo < n; lo += evalBlockSize {
		hi := min(lo+evalBlockSize, n)
		blk := m.Block(lo, hi)
		blk.MarginsIntoFast(w, margins)
		copy(out[lo:hi], margins[:hi-lo])
	}
}

// Evaluate scores the model on every unit of the test dataset. Scoring runs
// through the blocked margin kernels over the dataset's columnar arena: one
// fused dot-product pass per row block instead of a Row view and a Dot call
// per unit. (A dataset without an arena has N() == 0 and is rejected as
// empty, so the arena is always present past that check.)
func Evaluate(task data.TaskKind, w linalg.Vector, test *data.Dataset) (Report, error) {
	n := test.N()
	if n == 0 {
		return Report{}, fmt.Errorf("metrics: empty test set %q", test.Name)
	}
	var sse float64
	var correct int
	mp := marginPool.Get().(*[]float64)
	defer marginPool.Put(mp)
	margins := *mp
	for lo := 0; lo < n; lo += evalBlockSize {
		hi := lo + evalBlockSize
		if hi > n {
			hi = n
		}
		blk := test.Mat.Block(lo, hi)
		blk.MarginsInto(w, margins)
		for j := 0; j < hi-lo; j++ {
			p := PredictScore(task, margins[j])
			y := blk.Label(j)
			d := p - y
			sse += d * d
			if p == y {
				correct++
			}
		}
	}
	return Report{
		N:        n,
		MSE:      sse / float64(n),
		Accuracy: float64(correct) / float64(n),
	}, nil
}
