// Package data defines the columnar data layer that flows through GD plans —
// the Matrix arena and its Row views — plus parsers for the two input formats
// the paper exercises (sparse LIBSVM and dense comma-separated), dataset
// handles, train/test splitting and global statistics.
//
// Terminology follows the paper: a raw "data unit" is one input record (a text
// line); Transform turns it into a parsed, typed row (label + features).
package data

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"ml4all/internal/linalg"
)

// Matrix is the columnar arena the whole compute stack reads from: instead of
// one heap object per data unit, the entire dataset lives in a handful of flat
// arrays. Sparse data is CSR — one indices array, one values array, one
// rowOffsets array — and dense data is a single strided values array; labels
// are a column of their own. Rows are handed out as cheap value-type views
// (Row) that alias the arena: no copying, no per-row allocation, and
// sequential scans walk contiguous memory instead of chasing pointers.
//
// A Matrix is immutable after Build. Views produced by Slice and Gather share
// the arena and add only a row-index indirection, so train/test splits and
// speculation samples are zero-copy too.
type Matrix struct {
	n      int  // row count (of the view, when rowIDs is set)
	dense  bool // strided dense layout (stride features per row) vs CSR
	stride int  // dense: features per row

	labels  []float64 // per base row
	offsets []int64   // sparse: len baseRows+1, offsets[i]..offsets[i+1] spans row i
	indices []int32   // sparse: column indices, sorted ascending within a row
	values  []float64 // sparse: nnz values; dense: baseRows*stride values

	// text, when the arena was parsed from text (ReadMatrix, ParseMatrix),
	// holds the trimmed record each base row came from; nil otherwise.
	text []string

	rowIDs []int32 // nil => identity view over the base arena
}

// Row is a zero-copy view of one matrix row: the label plus the row's slice
// of the arena. It is the one record type: what the parsers return and what
// the operators, gradients and kernels take. For sparse rows Idx holds the
// (ascending) column indices of Vals; for dense rows Idx is nil and Vals is
// the full feature vector.
type Row struct {
	Label float64
	Idx   []int32
	Vals  []float64

	sparse bool
}

// NewSparseRow builds a standalone sparse row view over the given slices.
// Indices must be sorted ascending with duplicates summed (the
// linalg.SortDedup normalization, which the parsers apply).
func NewSparseRow(label float64, idx []int32, vals []float64) Row {
	return Row{Label: label, Idx: idx, Vals: vals, sparse: true}
}

// NewDenseRow builds a standalone dense row view over the given values.
func NewDenseRow(label float64, vals []float64) Row {
	return Row{Label: label, Vals: vals}
}

// IsSparse reports whether the row stores its features sparsely.
func (r Row) IsSparse() bool { return r.sparse }

// NNZ returns the number of stored feature values.
func (r Row) NNZ() int { return len(r.Vals) }

// Dot returns the inner product of the row's features with w.
func (r Row) Dot(w linalg.Vector) float64 {
	if r.sparse {
		return linalg.SparseDot(r.Idx, r.Vals, w)
	}
	return linalg.Vector(r.Vals).Dot(w)
}

// AddScaledInto accumulates alpha * features into dst.
func (r Row) AddScaledInto(dst linalg.Vector, alpha float64) {
	if r.sparse {
		linalg.SparseAddScaledInto(dst, alpha, r.Idx, r.Vals)
		return
	}
	dst.AddScaled(alpha, r.Vals)
}

// Norm2 returns the Euclidean norm of the row's features.
func (r Row) Norm2() float64 { return linalg.SparseNorm2(r.Vals) }

// MaxIndex returns the largest feature index present (0-based), or -1 when
// the row has no features.
func (r Row) MaxIndex() int {
	if r.sparse {
		if len(r.Idx) == 0 {
			return -1
		}
		return int(r.Idx[len(r.Idx)-1])
	}
	return len(r.Vals) - 1
}

// emptyIdx backs the Idx slice of empty sparse rows so IsSparse-by-shape
// stays distinguishable from dense even for rows with no stored features.
var emptyIdx = make([]int32, 0)

// NumRows returns the number of rows in the matrix (view).
func (m *Matrix) NumRows() int { return m.n }

// IsDense reports whether the matrix stores rows in the strided dense layout.
func (m *Matrix) IsDense() bool { return m.dense }

// Stride returns the dense feature count per row (0 for sparse matrices).
func (m *Matrix) Stride() int { return m.stride }

// baseRow maps a view row index to its base arena row.
func (m *Matrix) baseRow(i int) int {
	if m.rowIDs != nil {
		return int(m.rowIDs[i])
	}
	return i
}

// Row returns the zero-copy view of row i.
func (m *Matrix) Row(i int) Row {
	j := m.baseRow(i)
	if m.dense {
		return Row{Label: m.labels[j], Vals: m.values[j*m.stride : (j+1)*m.stride]}
	}
	lo, hi := m.offsets[j], m.offsets[j+1]
	// m.indices is never nil after Build, so the subslice is non-nil even
	// for empty rows and IsSparse stays truthful.
	return Row{Label: m.labels[j], Idx: m.indices[lo:hi], Vals: m.values[lo:hi], sparse: true}
}

// Label returns the label of row i without materializing the row view.
func (m *Matrix) Label(i int) float64 { return m.labels[m.baseRow(i)] }

// SetLabel overwrites the label of row i — the one sanctioned mutation
// (label-noise injection, relabeling workflows). The feature arena stays
// immutable. Views share the labels column with their base, so the write is
// visible through every view of the same arena — including Split/Sample
// subsets. Corrupt labels before splitting, or accept that held-out views
// observe the write; the view tests pin this aliasing as intentional. A
// Dataset's Raw text is fixed when it is built and never reflects a later
// SetLabel.
func (m *Matrix) SetLabel(i int, v float64) { m.labels[m.baseRow(i)] = v }

// RowNNZ returns the number of stored values of row i — an O(1) offsets
// lookup, used by per-unit cost accounting.
func (m *Matrix) RowNNZ(i int) int {
	if m.dense {
		return m.stride
	}
	j := m.baseRow(i)
	return int(m.offsets[j+1] - m.offsets[j])
}

// NNZ returns the total number of stored values across all rows of the view.
func (m *Matrix) NNZ() int {
	if m.dense {
		return m.n * m.stride
	}
	if m.rowIDs == nil {
		return len(m.values)
	}
	var nnz int64
	for i := 0; i < m.n; i++ {
		j := int(m.rowIDs[i])
		nnz += m.offsets[j+1] - m.offsets[j]
	}
	return int(nnz)
}

// MaxIndex returns the largest feature index present in the view, or -1 when
// no row stores a feature.
func (m *Matrix) MaxIndex() int {
	max := -1
	for i := 0; i < m.n; i++ {
		if mi := m.Row(i).MaxIndex(); mi > max {
			max = mi
		}
	}
	return max
}

// Rows materializes every row view of the matrix. It allocates only the
// []Row header slice — each element still aliases the arena. Intended for
// cold paths (tests, reference objectives, evaluation helpers); hot loops
// should index Row(i) directly.
func (m *Matrix) Rows() []Row {
	rows := make([]Row, m.n)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Slice returns the zero-copy view of rows [lo, hi) — the arena stays
// shared; only a row-index indirection is added. Panics on an invalid range,
// like a slice expression.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.n {
		panic(fmt.Sprintf("data: Matrix.Slice [%d:%d) out of range for %d rows", lo, hi, m.n))
	}
	ids := make([]int32, hi-lo)
	for i := range ids {
		ids[i] = int32(m.baseRow(lo + i))
	}
	return m.view(ids)
}

// Gather returns the zero-copy view selecting the given row indices of m, in
// order (duplicates allowed). Panics on an out-of-range index.
func (m *Matrix) Gather(rows []int) *Matrix {
	ids := make([]int32, len(rows))
	for k, i := range rows {
		if i < 0 || i >= m.n {
			panic(fmt.Sprintf("data: Matrix.Gather row %d out of range for %d rows", i, m.n))
		}
		ids[k] = int32(m.baseRow(i))
	}
	return m.view(ids)
}

// view wraps base-row ids into a Matrix sharing m's arena.
func (m *Matrix) view(ids []int32) *Matrix {
	return &Matrix{
		n: len(ids), dense: m.dense, stride: m.stride,
		labels: m.labels, offsets: m.offsets, indices: m.indices, values: m.values,
		text:   m.text,
		rowIDs: ids,
	}
}

// Compact returns m's rows packed into an arena of their own, in view order:
// bitwise the same rows, but contiguous, so full passes over the result take
// the block kernels where a gathered view goes row by row. An identity view
// is already packed and is returned as is. The copy carries no record text.
func (m *Matrix) Compact() *Matrix {
	if m.rowIDs == nil {
		return m
	}
	var b *MatrixBuilder
	if m.dense {
		b = NewDenseMatrixBuilder(m.n, m.stride)
	} else {
		b = NewMatrixBuilder(m.n, m.NNZ())
	}
	if err := b.AppendRows(m); err != nil {
		panic(fmt.Sprintf("data: Matrix.Compact: %v", err)) // the builder was made for m's layout
	}
	return b.Build()
}

// MatrixBuilder assembles a Matrix row by row, writing straight into the
// arena: AppendSparse normalizes (sorts, sums duplicates of) each row in
// place at the arena tail, so building a dataset performs no intermediate
// per-row allocation. Pre-size with the rows/nnz capacity hints when a
// counting pass ran first; the builder grows amortized otherwise.
type MatrixBuilder struct {
	m     Matrix
	view  Matrix // BuildView's result record, reused so views allocate nothing
	dense bool
	set   bool // layout fixed by the first append (or the constructor)
}

// NewMatrixBuilder returns a builder whose layout (sparse or dense) is fixed
// by the first appended row. rows and nnz are capacity hints; zero is fine.
func NewMatrixBuilder(rows, nnz int) *MatrixBuilder {
	b := &MatrixBuilder{}
	if rows > 0 {
		b.m.labels = make([]float64, 0, rows)
	}
	if nnz > 0 {
		b.m.indices = make([]int32, 0, nnz)
		b.m.values = make([]float64, 0, nnz)
	}
	return b
}

// NewDenseMatrixBuilder returns a builder for a dense matrix with the given
// stride (features per row). rows is a capacity hint.
func NewDenseMatrixBuilder(rows, stride int) *MatrixBuilder {
	b := &MatrixBuilder{dense: true, set: true}
	b.m.dense = true
	b.m.stride = stride
	if rows > 0 {
		b.m.labels = make([]float64, 0, rows)
		b.m.values = make([]float64, 0, rows*stride)
	}
	return b
}

// Len returns the number of rows appended so far.
func (b *MatrixBuilder) Len() int { return len(b.m.labels) }

// AppendSparse appends one sparse row, copying (idx, vals) into the arena and
// normalizing the copy in place (sorted ascending, duplicate indices summed —
// linalg.SortDedup, the one normalization rule, so an arena row is bitwise
// the row ParseLIBSVMLine returns for the same text). The caller keeps
// ownership of idx/vals and may reuse them across calls.
func (b *MatrixBuilder) AppendSparse(label float64, idx []int32, vals []float64) error {
	if b.set && b.dense {
		return fmt.Errorf("data: AppendSparse on a dense matrix builder")
	}
	b.set = true
	if len(idx) != len(vals) {
		return fmt.Errorf("data: sparse row length mismatch %d vs %d", len(idx), len(vals))
	}
	if b.m.offsets == nil {
		b.m.offsets = append(make([]int64, 0, cap(b.m.labels)+1), 0)
	}
	lo := len(b.m.indices)
	b.m.indices = append(b.m.indices, idx...)
	b.m.values = append(b.m.values, vals...)
	n, err := linalg.SortDedup(b.m.indices[lo:], b.m.values[lo:])
	if err != nil {
		b.m.indices = b.m.indices[:lo]
		b.m.values = b.m.values[:lo]
		return err
	}
	b.m.indices = b.m.indices[:lo+n]
	b.m.values = b.m.values[:lo+n]
	b.m.offsets = append(b.m.offsets, int64(lo+n))
	b.m.labels = append(b.m.labels, label)
	return nil
}

// AppendDense appends one dense row, copying vals into the strided arena.
// Every row must match the builder's stride (fixed by the constructor or the
// first appended row).
func (b *MatrixBuilder) AppendDense(label float64, vals []float64) error {
	if b.set && !b.dense {
		return fmt.Errorf("data: AppendDense on a sparse matrix builder")
	}
	if !b.set {
		b.set, b.dense = true, true
		b.m.dense = true
		b.m.stride = len(vals)
	}
	if len(vals) != b.m.stride {
		return fmt.Errorf("data: dense row has %d features, matrix stride is %d", len(vals), b.m.stride)
	}
	b.m.values = append(b.m.values, vals...)
	b.m.labels = append(b.m.labels, label)
	return nil
}

// DenseRowBuffer returns a writable slice for the next dense row, appended in
// place: generators fill it directly instead of staging a separate vector.
// The row is committed with the given label; the returned slice is only valid
// until the next append.
func (b *MatrixBuilder) DenseRowBuffer() (linalg.Vector, error) {
	if !b.set || !b.dense || b.m.stride == 0 {
		return nil, fmt.Errorf("data: DenseRowBuffer needs a stride — use NewDenseMatrixBuilder")
	}
	lo := len(b.m.values)
	hi := lo + b.m.stride
	if hi > cap(b.m.values) {
		grown := make([]float64, lo, growCap(cap(b.m.values), hi))
		copy(grown, b.m.values)
		b.m.values = grown
	}
	b.m.values = b.m.values[:hi]
	clear(b.m.values[lo:hi]) // recycled arenas hold stale data; rows go out zero-filled
	return b.m.values[lo:], nil
}

// CommitDenseRow finalizes the row last handed out by DenseRowBuffer.
func (b *MatrixBuilder) CommitDenseRow(label float64) {
	b.m.labels = append(b.m.labels, label)
}

// growCap picks the next arena capacity reaching need: doubled like append's
// growth, so repeated row appends stay amortized O(1).
func growCap(c, need int) int {
	if c < 8 {
		c = 8
	}
	for c < need {
		c *= 2
	}
	return c
}

// AppendDensePadded appends one dense row: vals, zero-padded to the stride.
// It writes each element of the row exactly once (the copied prefix is never
// pre-cleared), which is the serving ingest hot path's fused form of
// DenseRowBuffer + copy + CommitDenseRow.
func (b *MatrixBuilder) AppendDensePadded(label float64, vals []float64) error {
	if !b.set || !b.dense || b.m.stride == 0 {
		return fmt.Errorf("data: AppendDensePadded needs a stride — use NewDenseMatrixBuilder")
	}
	if len(vals) > b.m.stride {
		return fmt.Errorf("data: AppendDensePadded: row has %d values, stride is %d", len(vals), b.m.stride)
	}
	lo := len(b.m.values)
	hi := lo + b.m.stride
	if hi > cap(b.m.values) {
		grown := make([]float64, lo, growCap(cap(b.m.values), hi))
		copy(grown, b.m.values)
		b.m.values = grown
	}
	b.m.values = b.m.values[:hi]
	n := copy(b.m.values[lo:], vals)
	clear(b.m.values[lo+n : hi]) // recycled arenas hold stale data past the copy
	b.m.labels = append(b.m.labels, label)
	return nil
}

// AppendRows bulk-appends every row of m, which must share the builder's
// layout (and stride, when dense). Rows arrive already normalized — m was
// built through AppendSparse or a parser — so the copy skips SortDedup: the
// appended rows are bitwise identical to appending them one by one, at
// memcpy speed. Identity views copy their arena ranges wholesale; gathered
// views fall back to per-row copies. Two callers use it: the engine's
// materialize step (engine/compute.go), which concatenates the per-shard
// arenas a custom Transformer produced, and Matrix.Compact.
func (b *MatrixBuilder) AppendRows(m *Matrix) error {
	if m.dense {
		if b.set && !b.dense {
			return fmt.Errorf("data: AppendRows: dense rows into a sparse builder")
		}
		if !b.set {
			b.set, b.dense = true, true
			b.m.dense = true
			b.m.stride = m.stride
		}
		if m.stride != b.m.stride {
			return fmt.Errorf("data: AppendRows: dense stride %d into a stride-%d builder", m.stride, b.m.stride)
		}
		if m.rowIDs == nil {
			b.m.values = append(b.m.values, m.values...)
			b.m.labels = append(b.m.labels, m.labels...)
			return nil
		}
		for i := 0; i < m.n; i++ {
			j := int(m.rowIDs[i])
			b.m.values = append(b.m.values, m.values[j*m.stride:(j+1)*m.stride]...)
			b.m.labels = append(b.m.labels, m.labels[j])
		}
		return nil
	}
	if b.set && b.dense {
		return fmt.Errorf("data: AppendRows: sparse rows into a dense builder")
	}
	b.set = true
	if b.m.offsets == nil {
		b.m.offsets = append(make([]int64, 0, cap(b.m.labels)+1), 0)
	}
	if m.rowIDs == nil {
		base := int64(len(b.m.indices)) - m.offsets[0]
		b.m.indices = append(b.m.indices, m.indices[m.offsets[0]:m.offsets[len(m.offsets)-1]]...)
		b.m.values = append(b.m.values, m.values[m.offsets[0]:m.offsets[len(m.offsets)-1]]...)
		for _, off := range m.offsets[1:] {
			b.m.offsets = append(b.m.offsets, base+off)
		}
		b.m.labels = append(b.m.labels, m.labels...)
		return nil
	}
	for i := 0; i < m.n; i++ {
		j := int(m.rowIDs[i])
		lo, hi := m.offsets[j], m.offsets[j+1]
		b.m.indices = append(b.m.indices, m.indices[lo:hi]...)
		b.m.values = append(b.m.values, m.values[lo:hi]...)
		b.m.offsets = append(b.m.offsets, int64(len(b.m.indices)))
		b.m.labels = append(b.m.labels, m.labels[j])
	}
	return nil
}

// Build finalizes and returns the matrix. The builder must not be used
// afterwards.
func (b *MatrixBuilder) Build() *Matrix {
	m := b.m
	m.n = len(m.labels)
	if !m.dense {
		if m.offsets == nil {
			m.offsets = []int64{0}
		}
		if m.indices == nil {
			m.indices = emptyIdx
		}
	}
	b.m = Matrix{}
	return &m
}

// BuildView finalizes the appended rows as a Matrix that ALIASES the
// builder's arena instead of detaching it: the view (one record owned by the
// builder, overwritten by the next BuildView) is valid only until the
// builder's next Reset or append. Pooled-ingest callers — the serving
// layer's request parsers — use BuildView + Reset so one builder's arena is
// recycled across requests with zero steady-state allocation; everyone else
// should use Build.
func (b *MatrixBuilder) BuildView() *Matrix {
	b.view = b.m
	b.view.n = len(b.view.labels)
	if !b.view.dense {
		if b.view.offsets == nil {
			b.view.offsets = []int64{0}
		}
		if b.view.indices == nil {
			b.view.indices = emptyIdx
		}
	}
	return &b.view
}

// Reset returns the builder to its post-construction state while keeping the
// arena capacity, invalidating every Matrix previously produced by BuildView.
// The layout is unfixed again: the next append (or SetDense) re-fixes it, so
// one pooled builder serves sparse and dense requests alike.
func (b *MatrixBuilder) Reset() {
	b.m.labels = b.m.labels[:0]
	b.m.values = b.m.values[:0]
	b.m.indices = b.m.indices[:0]
	if b.m.offsets != nil {
		b.m.offsets = append(b.m.offsets[:0], 0)
	}
	b.m.dense = false
	b.m.stride = 0
	b.dense = false
	b.set = false
}

// SetDense fixes the dense layout with the given stride on a fresh (or
// Reset) builder, as NewDenseMatrixBuilder's constructor does — required
// before DenseRowBuffer on a pooled builder. Fails once rows are appended or
// the layout is already fixed.
func (b *MatrixBuilder) SetDense(stride int) error {
	if b.set || len(b.m.labels) > 0 {
		return fmt.Errorf("data: SetDense on a builder whose layout is already fixed")
	}
	if stride <= 0 {
		return fmt.Errorf("data: SetDense needs a positive stride, got %d", stride)
	}
	b.set, b.dense = true, true
	b.m.dense = true
	b.m.stride = stride
	return nil
}

// String renders the row in LIBSVM text form (1-based indices), the format
// used throughout the paper's examples.
func (r Row) String() string { return string(r.appendLIBSVM(nil)) }

// CSVString renders the row as a dense comma-separated line with the label in
// the first column — the paper's dense input convention.
func (r Row) CSVString() string { return string(r.appendCSV(nil)) }

// appendLIBSVM appends the row's LIBSVM text to buf (grown once, to a bound
// on the text's length, when too small): the label, then " index:value" for
// every stored value of a sparse row or every non-zero of a dense one.
// Numbers are written as %g writes them.
func (r Row) appendLIBSVM(buf []byte) []byte {
	buf = slices.Grow(buf, 24+36*len(r.Vals))
	buf = strconv.AppendFloat(buf, r.Label, 'g', -1, 64)
	for k, v := range r.Vals {
		i := int64(k)
		if r.sparse {
			i = int64(r.Idx[k])
		} else if v == 0 {
			continue
		}
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, i+1, 10)
		buf = append(buf, ':')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return buf
}

// appendCSV is appendLIBSVM for the dense comma-separated form; a sparse row
// is spread over max index + 1 columns first.
func (r Row) appendCSV(buf []byte) []byte {
	vals := r.Vals
	if r.sparse {
		vals = make([]float64, r.MaxIndex()+1)
		linalg.SparseAddScaledInto(vals, 1, r.Idx, r.Vals)
	}
	buf = slices.Grow(buf, 24+25*len(vals))
	buf = strconv.AppendFloat(buf, r.Label, 'g', -1, 64)
	for _, v := range vals {
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return buf
}

// RowsEqual reports whether two rows are bitwise-identical views: same label,
// same representation, same indices and values (NaN-safe bit comparison).
func RowsEqual(a, b Row) bool {
	if a.sparse != b.sparse || len(a.Vals) != len(b.Vals) {
		return false
	}
	if math.Float64bits(a.Label) != math.Float64bits(b.Label) {
		return false
	}
	for k := range a.Vals {
		if a.sparse && a.Idx[k] != b.Idx[k] {
			return false
		}
		if math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
			return false
		}
	}
	return true
}
