// Package data defines the columnar data layer that flows through GD plans —
// the Matrix arena and its Row views — plus parsers for the two input formats
// the paper exercises (sparse LIBSVM and dense comma-separated), dataset
// handles, train/test splitting and global statistics.
//
// Terminology follows the paper: a raw "data unit" is one input record (a text
// line); Transform turns it into a parsed, typed row (label + features).
package data

import "ml4all/internal/linalg"

// Unit is the standalone (non-arena) form of one parsed data unit: a labeled
// feature vector that owns its slices. Since the columnar-arena refactor the
// hot paths run on Row views into a Matrix; Unit survives as the thin
// compatibility constructor for call sites that materialize individual
// records — per-line parsers, custom Transform UDFs, tests — and converts to
// a Row with no copying via Row().
type Unit struct {
	Label  float64
	Sparse linalg.Sparse
	Dense  linalg.Vector
	sparse bool
}

// NewSparseUnit builds a sparse unit.
func NewSparseUnit(label float64, s linalg.Sparse) Unit {
	return Unit{Label: label, Sparse: s, sparse: true}
}

// NewDenseUnit builds a dense unit.
func NewDenseUnit(label float64, v linalg.Vector) Unit {
	return Unit{Label: label, Dense: v}
}

// Row returns the zero-copy row view of the unit: the slices are shared, not
// copied.
func (u Unit) Row() Row {
	if u.sparse {
		idx := u.Sparse.Indices
		if idx == nil {
			idx = emptyIdx
		}
		return Row{Label: u.Label, Idx: idx, Vals: u.Sparse.Values, sparse: true}
	}
	return Row{Label: u.Label, Vals: u.Dense}
}

// IsSparse reports whether the unit stores its features sparsely.
func (u Unit) IsSparse() bool { return u.sparse }

// NNZ returns the number of stored feature values.
func (u Unit) NNZ() int {
	if u.sparse {
		return u.Sparse.NNZ()
	}
	return len(u.Dense)
}

// Dot returns the inner product of the unit's features with w.
func (u Unit) Dot(w linalg.Vector) float64 { return u.Row().Dot(w) }

// AddScaledInto accumulates alpha * features into dst.
func (u Unit) AddScaledInto(dst linalg.Vector, alpha float64) {
	u.Row().AddScaledInto(dst, alpha)
}

// MaxIndex returns the largest feature index present (0-based), or -1 when
// the unit has no features.
func (u Unit) MaxIndex() int { return u.Row().MaxIndex() }

// String renders the unit in LIBSVM text form (1-based indices), the format
// used throughout the paper's examples.
func (u Unit) String() string { return u.Row().String() }

// CSVString renders the unit as a dense comma-separated line with the label
// in the first column — the paper's dense input convention.
func (u Unit) CSVString() string { return u.Row().CSVString() }

// ApproxBytes estimates the in-memory footprint of the unit in bytes. The
// storage layer uses it to lay units out on simulated pages; it intentionally
// matches the accounting a columnar record reader would do (8 bytes per value,
// 4 per sparse index, 8 for the label).
func (u Unit) ApproxBytes() int { return u.Row().ApproxBytes() }
