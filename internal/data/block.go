package data

import (
	"fmt"

	"ml4all/internal/linalg"
)

// Block is a zero-copy view of a run of matrix rows, the unit of work of the
// batched execution layer: the engine carves shard spans into fixed-size
// blocks and hands each to one fused kernel call (gd.BatchComputer) instead
// of one interface call per row. A block remembers whether its rows are
// CONTIGUOUS in the base arena — the common case for full passes, where the
// kernels read the dense strided values (DenseRows) or the CSR arena
// (CSRRows) directly with all per-row view construction hoisted — and falls
// back to per-row access (Row) for gathered batches or shuffled views.
//
// Like Row, a Block aliases the arena: construction allocates nothing.
type Block struct {
	m  *Matrix
	lo int // first view row when ids == nil
	n  int

	// base is the first base-arena row when the block's rows are contiguous
	// in the arena (ids/rowIDs absent or consecutive), else -1.
	base int

	// ids, when set, are the view-row indices of a gathered (sampled) block.
	ids []int
}

// DefaultBlockSize is the canonical row-block width of the batched
// execution layer — the engine's default span carving, the gd margin-pool
// sizing, and the blocked objective/evaluation loops all derive from it.
// The value trades cache residency against dispatch amortization (see
// DESIGN.md §8) and affects speed only: block kernels are bit-identical to
// the per-row path at every width.
const DefaultBlockSize = 512

// Block returns the view of rows [lo, hi) as one block. Panics on an invalid
// range, like a slice expression.
func (m *Matrix) Block(lo, hi int) Block {
	if lo < 0 || hi < lo || hi > m.n {
		panic(fmt.Sprintf("data: Matrix.Block [%d:%d) out of range for %d rows", lo, hi, m.n))
	}
	b := Block{m: m, lo: lo, n: hi - lo, base: -1}
	if m.rowIDs == nil {
		b.base = lo
		return b
	}
	// A view (train/test split, shard slice) is still contiguous when its
	// row ids run consecutively — true for every Slice-produced view. The
	// scan is O(block) int compares, noise next to the O(block·nnz) kernel.
	base := int(m.rowIDs[lo])
	for j := 1; j < b.n; j++ {
		if int(m.rowIDs[lo+j]) != base+j {
			return b
		}
	}
	b.base = base
	return b
}

// GatherBlock returns the block selecting the given view-row indices, in
// order (duplicates allowed) — the form sampled batches take. The ids slice
// is aliased, not copied, and must stay unchanged while the block is in use;
// out-of-range indices panic on first row access, as Matrix.Row would.
func (m *Matrix) GatherBlock(ids []int) Block {
	b := Block{m: m, n: len(ids), base: -1, ids: ids}
	if len(ids) == 0 {
		return b
	}
	if first := ids[0]; first >= 0 && first < m.n {
		base := m.baseRow(first)
		for j := 1; j < len(ids); j++ {
			if ids[j] < 0 || ids[j] >= m.n || m.baseRow(ids[j]) != base+j {
				return b
			}
		}
		b.base = base
	}
	return b
}

// Len returns the number of rows in the block.
func (b Block) Len() int { return b.n }

// viewRow maps a block position to its matrix view row.
func (b Block) viewRow(j int) int {
	if b.ids != nil {
		return b.ids[j]
	}
	return b.lo + j
}

// Row returns the zero-copy view of block row j.
func (b Block) Row(j int) Row { return b.m.Row(b.viewRow(j)) }

// Label returns the label of block row j.
func (b Block) Label(j int) float64 { return b.m.Label(b.viewRow(j)) }

// Labels returns the block's labels as one arena slice when the rows are
// contiguous, else (nil, false); kernels fall back to Label(j).
func (b Block) Labels() ([]float64, bool) {
	if b.base < 0 {
		return nil, false
	}
	return b.m.labels[b.base : b.base+b.n], true
}

// DenseRows returns the strided values of a contiguous dense block: row j is
// vals[j*stride : (j+1)*stride]. ok is false for sparse matrices and
// non-contiguous blocks.
func (b Block) DenseRows() (vals []float64, stride int, ok bool) {
	if b.base < 0 || !b.m.dense {
		return nil, 0, false
	}
	s := b.m.stride
	return b.m.values[b.base*s : (b.base+b.n)*s], s, true
}

// CSRRows returns the CSR sub-range of a contiguous sparse block: offs holds
// Len()+1 absolute offsets into the shared indices/values arena, so row j is
// indices[offs[j]:offs[j+1]] / values[offs[j]:offs[j+1]]. ok is false for
// dense matrices and non-contiguous blocks.
func (b Block) CSRRows() (offs []int64, indices []int32, values []float64, ok bool) {
	if b.base < 0 || b.m.dense {
		return nil, nil, nil, false
	}
	return b.m.offsets[b.base : b.base+b.n+1], b.m.indices, b.m.values, true
}

// MarginsInto fills out[j] with <row j, w> for every row of the block,
// dispatching to the fused dense/CSR kernels when the block is contiguous
// and to per-row Dot otherwise. Every path accumulates each margin with the
// same single-sum index-order loop, so the results are bitwise identical to
// calling Row(j).Dot(w) row by row. out must have at least Len() slots; only
// the first Len() are written.
func (b Block) MarginsInto(w linalg.Vector, out []float64) {
	out = out[:b.n]
	if vals, stride, ok := b.DenseRows(); ok {
		linalg.DenseMargins(vals, stride, w, out)
		return
	}
	if offs, idx, vals, ok := b.CSRRows(); ok {
		linalg.CSRMargins(offs, idx, vals, w, out)
		return
	}
	for j := range out {
		out[j] = b.Row(j).Dot(w)
	}
}

// MarginsIntoFast is the fast-math tier's MarginsInto: dense blocks
// dispatch to the multi-accumulator kernel, whose results agree with
// MarginsInto only to a relative tolerance (see DESIGN.md §10), never bit
// for bit. CSR blocks run the exact CSR kernel and non-contiguous blocks
// the exact per-row path, so their margins are MarginsInto's bits.
func (b Block) MarginsIntoFast(w linalg.Vector, out []float64) {
	if vals, stride, ok := b.DenseRows(); ok {
		linalg.DenseMarginsFast(vals, stride, w, out[:b.n])
		return
	}
	b.MarginsInto(w, out)
}
