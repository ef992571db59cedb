package data

import "fmt"

// ColumnSpec selects which CSV columns hold the label and the features, all
// 1-based as written in the declarative language ("input.txt:2,
// input.txt:4-20" means label in column 2, features in columns 4-20). A zero
// FeatLo means "every column except the label".
type ColumnSpec struct {
	LabelCol int
	FeatLo   int
	FeatHi   int
}

// Validate reports the first problem with the spec.
func (c ColumnSpec) Validate() error {
	switch {
	case c.LabelCol < 1:
		return fmt.Errorf("data: label column must be >= 1, got %d", c.LabelCol)
	case c.FeatLo != 0 && (c.FeatLo < 1 || c.FeatHi < c.FeatLo):
		return fmt.Errorf("data: bad feature column range %d-%d", c.FeatLo, c.FeatHi)
	case c.FeatLo != 0 && c.LabelCol >= c.FeatLo && c.LabelCol <= c.FeatHi:
		return fmt.Errorf("data: label column %d inside feature range %d-%d", c.LabelCol, c.FeatLo, c.FeatHi)
	}
	return nil
}

// Project returns the dense matrix spec selects from m, whose rows are read
// as the comma-separated records they were parsed from: file column 1 is the
// row's label and file column c > 1 is feature c-2. Only a dense matrix has
// file columns; a spec that reaches past them is an error.
func (m *Matrix) Project(spec ColumnSpec) (*Matrix, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !m.dense {
		return nil, fmt.Errorf("data: a column specification needs dense comma-separated input, not LIBSVM")
	}
	cols := m.stride + 1
	if spec.LabelCol > cols {
		return nil, fmt.Errorf("data: label column %d beyond %d columns", spec.LabelCol, cols)
	}
	lo, hi := spec.FeatLo, spec.FeatHi
	if lo == 0 {
		lo, hi = 1, cols
	}
	if hi > cols {
		return nil, fmt.Errorf("data: feature column %d beyond %d columns", hi, cols)
	}
	stride := hi - lo + 1
	if spec.LabelCol >= lo && spec.LabelCol <= hi { // only when FeatLo == 0, see Validate
		stride--
	}
	b := NewDenseMatrixBuilder(m.n, stride)
	file := make([]float64, cols)
	feats := make([]float64, 0, stride)
	for i := 0; i < m.n; i++ {
		r := m.Row(i)
		file[0] = r.Label
		copy(file[1:], r.Vals)
		feats = feats[:0]
		for c := lo; c <= hi; c++ {
			if c != spec.LabelCol {
				feats = append(feats, file[c-1])
			}
		}
		if err := b.AppendDense(file[spec.LabelCol-1], feats); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
