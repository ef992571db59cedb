package gd

import (
	"sync"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gradients"
	"ml4all/internal/linalg"
)

// BatchComputer is the optional batched extension of Computer: when a plan's
// Computer implements it, the engine carves each shard span into fixed-size
// contiguous row blocks and makes ONE ComputeBlock call per block instead of
// one Compute call per row — devirtualizing the per-row interface dispatch
// and letting the loss kernels run fused, cache-blocked loops over the
// columnar arena. A Computer that does not implement it (a custom UDF) runs
// through the same block loop wrapped by Batched, one Compute call per row.
//
// Contract: ComputeBlock must accumulate into acc exactly what Len() calls
// of Compute on the block's rows — in block row order — would, bit for bit.
// The stock implementations achieve this through the gradients package's
// kernel pipeline (margins first, then an in-order accumulate); the engine's
// block property test enforces it. The Computer concurrency contract applies
// unchanged: ctx is read-only, acc is the only output, many goroutines call
// ComputeBlock at once with disjoint acc buffers.
type BatchComputer interface {
	Computer
	ComputeBlock(rows data.Block, ctx *Context, acc linalg.Vector)
}

// KernelTier resolves the tier c's compute pass runs at, given whether the
// run asked for fast math. The engine bills the pass and the cost model
// prices it by this answer alone, each through cluster.Config.PriceCPU, so
// execution and billing cannot disagree: a stock computer is only as capable
// as the Gradient it wraps.
func KernelTier(c Computer, fastMath bool) cluster.Tier {
	if _, ok := c.(BatchComputer); !ok {
		return cluster.RowTier
	}
	var g gradients.Gradient
	switch c := c.(type) {
	case GradientComputer:
		g = c.Gradient
	case SVRGComputer:
		g = c.Gradient
	case LineSearchComputer:
		g = c.Gradient
	default:
		return cluster.BlockTier // a BatchComputer UDF owns its kernels
	}
	_, _, tier := blockKernels(g, fastMath)
	return tier
}

// marginPool recycles the per-block margin scratch the stock ComputeBlock
// implementations hand to the gradients kernels. Pooled rather than stored
// on the Context because compute runs on many goroutines against one
// read-only ctx; pooled rather than stack-allocated so engine-configured
// block sizes beyond the default work without per-block allocation in
// steady state.
var marginPool = sync.Pool{
	New: func() any {
		// Pre-sized to the engine's default block width so steady-state
		// blocks never grow the buffer.
		s := make([]float64, data.DefaultBlockSize)
		return &s
	},
}

// takeMargins returns pooled scratch with at least n slots (contents
// unspecified); release with putMargins.
func takeMargins(n int) *[]float64 {
	p := marginPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p
}

func putMargins(p *[]float64) { marginPool.Put(p) }

// blockKernels is the one resolution of which kernels a Gradient has: the
// fast-math kernels when asked for and implemented, else the bit-exact
// block kernels, else none (RowTier). Returning the pair as plain funcs
// keeps the per-block dispatch to two type assertions at most, paid once per
// block, not per row.
func blockKernels(g gradients.Gradient, fastMath bool) (addGrad func(linalg.Vector, data.Block, []float64, linalg.Vector), loss func(linalg.Vector, data.Block, []float64, *float64), tier cluster.Tier) {
	if fg, ok := g.(gradients.FastGradient); ok && fastMath {
		return fg.AddGradientBlockFast, fg.LossBlockFast, cluster.FastTier
	}
	if bg, ok := g.(gradients.BlockGradient); ok {
		return bg.AddGradientBlock, bg.LossBlock, cluster.BlockTier
	}
	return nil, nil, cluster.RowTier
}

// computeRowByRow is the block loop of RowTier computers: one Compute call
// per row of the block, in row order. It serves Batched's adapter and the
// stock computers over a Gradient without block kernels.
func computeRowByRow(c Computer, rows data.Block, ctx *Context, acc linalg.Vector) {
	for j, n := 0, rows.Len(); j < n; j++ {
		c.Compute(rows.Row(j), ctx, acc)
	}
}

// Batched returns c as a BatchComputer: c itself when it has a ComputeBlock,
// else a row adapter whose ComputeBlock calls Compute once per row of the
// block, in row order. The engine runs every Computer through it, so there
// is one compute loop; billing stays KernelTier's answer for c itself.
func Batched(c Computer) BatchComputer {
	if bc, ok := c.(BatchComputer); ok {
		return bc
	}
	return rowComputer{c}
}

// rowComputer is Batched's adapter for a Computer without block kernels.
type rowComputer struct{ Computer }

// ComputeBlock implements BatchComputer one row at a time.
func (c rowComputer) ComputeBlock(rows data.Block, ctx *Context, acc linalg.Vector) {
	computeRowByRow(c.Computer, rows, ctx, acc)
}

// ComputeBlock implements BatchComputer: one fused gradient kernel call per
// block (Listing 2, batched).
func (c GradientComputer) ComputeBlock(rows data.Block, ctx *Context, acc linalg.Vector) {
	addGrad, _, tier := blockKernels(c.Gradient, ctx.FastMath)
	if tier == cluster.RowTier {
		computeRowByRow(c, rows, ctx, acc)
		return
	}
	mp := takeMargins(rows.Len())
	addGrad(ctx.Weights, rows, *mp, acc)
	putMargins(mp)
}

// ComputeBlock implements BatchComputer for SVRG. On stochastic iterations
// the row path interleaves the two gradient evaluations per row; here the
// block runs the w pass and then the w̃ pass. The two accumulate into
// disjoint halves of acc and each half is filled in row order, so the
// result is still bit-identical to the interleaved per-row loop.
func (c SVRGComputer) ComputeBlock(rows data.Block, ctx *Context, acc linalg.Vector) {
	addGrad, _, tier := blockKernels(c.Gradient, ctx.FastMath)
	if tier == cluster.RowTier {
		computeRowByRow(c, rows, ctx, acc)
		return
	}
	d := ctx.NumFeatures
	mp := takeMargins(rows.Len())
	addGrad(ctx.Weights, rows, *mp, acc[:d])
	if !svrgFullIteration(ctx.Iter, c.M) {
		wBar, err := ctx.GetVector(svrgBarKey)
		if err != nil {
			// Stage always sets the snapshot; a missing one is a programming
			// error in a custom operator wiring, surfaced loudly.
			panic(err)
		}
		addGrad(wBar, rows, *mp, acc[d:])
	}
	putMargins(mp)
}

// ComputeBlock implements BatchComputer for backtracking line search: loss
// sums (and, in gradient phase, the gradient) accumulate per block through
// the fused kernels. acc slots 0/1 and the gradient tail are disjoint, each
// filled in row order, matching the per-row loop bit for bit.
func (c LineSearchComputer) ComputeBlock(rows data.Block, ctx *Context, acc linalg.Vector) {
	addGrad, loss, tier := blockKernels(c.Gradient, ctx.FastMath)
	if tier == cluster.RowTier {
		computeRowByRow(c, rows, ctx, acc)
		return
	}
	mp := takeMargins(rows.Len())
	if phase, _ := ctx.Get(lsPhaseKey).(string); phase == lsPhaseProbe {
		trial, err := ctx.GetVector(lsTrialKey)
		if err != nil {
			panic(err)
		}
		loss(ctx.Weights, rows, *mp, &acc[0])
		loss(trial, rows, *mp, &acc[1])
	} else {
		loss(ctx.Weights, rows, *mp, &acc[0])
		addGrad(ctx.Weights, rows, *mp, acc[2:])
	}
	putMargins(mp)
}
