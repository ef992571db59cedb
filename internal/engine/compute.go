package engine

import (
	"fmt"
	"sort"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
)

// This file holds the numeric phases. The split the whole design hangs on:
// real work (parsing, gradient math, loss sums) fans out over the worker
// pool, while every sim.Cost*/Run*/Transfer call stays on the driver goroutine
// in a fixed order. The serial path is the parallel path with one worker —
// same shards, same per-shard partials, same ordered tree reduction — so
// Workers changes wall-clock time and nothing else.
//
// There is one data path: every pass reads the columnar arena ex.mat (the
// dataset's own under a stock transformer, materialize's otherwise) through
// zero-copy views, and the per-task accumulators are carved from one flat
// arena, so a steady-state compute pass performs no heap allocation.

// materialize leaves the transformed data in ex.mat. A stock transformer's
// output is the dataset's arena, adopted by newTrainerShell; a custom
// Transformer UDF is run here over every raw unit on the worker pool, one
// arena per shard, merged in shard order. It charges nothing: eager plans pay
// in eagerTransform and lazy plans per touch in every pass (parseCost),
// whatever was physically parsed when.
func (ex *executor) materialize() error {
	if ex.mat != nil {
		return nil
	}
	ds := ex.store.Dataset
	parts := make([]*data.Matrix, len(ex.shards))
	guard := ex.ctx.Guard()
	err := ex.runTasks(len(ex.shards), func(task int) error {
		sh := ex.shards[task]
		b := data.NewMatrixBuilder(sh.Hi-sh.Lo, 0)
		for i := sh.Lo; i < sh.Hi; i++ {
			r, err := ex.plan.Transformer.Transform(ds.Raw[i], ex.ctx)
			if err == nil {
				if r.IsSparse() {
					err = b.AppendSparse(r.Label, r.Idx, r.Vals)
				} else {
					err = b.AppendDense(r.Label, r.Vals)
				}
			}
			if err != nil {
				return fmt.Errorf("engine: transform unit %d: %w", i, err)
			}
		}
		parts[task] = b.Build()
		return nil
	})
	if err == nil {
		err = guard.Check(ex.ctx)
	}
	if err != nil {
		return err
	}
	all := data.NewMatrixBuilder(ds.N(), 0)
	for task, m := range parts {
		if err := all.AppendRows(m); err != nil {
			return fmt.Errorf("engine: transform unit %d: %w", ex.shards[task].Lo, err)
		}
	}
	ex.mat = all.Build()
	return nil
}

// eagerTransform charges the upfront parse of the whole dataset: one
// distributed task per partition (or locally when the dataset is a single
// partition), exactly as a serial execution would. The parsing itself is
// materialize's.
func (ex *executor) eagerTransform() {
	costs := ex.costBuf[:0]
	for _, p := range ex.store.Partitions {
		c := ex.sim.CostReadPartition(p, ex.store.Layout)
		c += ex.sim.CostParse(p.Units(), p.Bytes)
		costs = append(costs, c)
	}
	ex.costBuf = costs
	mode := ex.plan.Mode
	if ex.plan.TransformMode != gd.AutoMode {
		mode = ex.plan.TransformMode
	}
	if ex.distributedInputMode(ex.store.TotalBytes, mode) {
		ex.sim.RunWaves(costs)
	} else {
		var sum cluster.Seconds
		for _, c := range costs {
			sum += c
		}
		ex.sim.RunLocal(sum)
	}
}

// opsSum accumulates the Computer's per-unit op estimate over positions
// [lo, hi) in order, each mapped to a unit by idx (nil means the position is
// the unit) — the quantity the driver charges a compute task with. On a
// dense arena every row has the same stored-value count, so the per-row Ops
// interface call is hoisted to one evaluation per range; the float
// accumulation stays one add per row, keeping the sum bit-identical to the
// naive per-row loop.
func (ex *executor) opsSum(lo, hi int, idx []int) float64 {
	var ops float64
	m := ex.mat
	if m.IsDense() {
		per := ex.plan.Computer.Ops(m.Stride())
		for i := lo; i < hi; i++ {
			ops += per
		}
		return ops
	}
	for pos := lo; pos < hi; pos++ {
		i := pos
		if idx != nil {
			i = idx[pos]
		}
		ops += ex.plan.Computer.Ops(m.RowNNZ(i))
	}
	return ops
}

// costComputeCPU charges one compute task's CPU cost at the run's kernel
// tier: the full per-row overhead (Sim.CostCPU) for RowTier, the per-block
// amortized unit overhead (Sim.CostCompute, see the calibration table at
// cluster.ComputeUnitOverheadFrac) for BlockTier, and the fast kernels'
// throughput for FastTier.
func (ex *executor) costComputeCPU(units int, ops float64) cluster.Seconds {
	switch ex.tier {
	case gd.RowTier:
		return ex.sim.CostCPU(units, ops)
	case gd.FastTier:
		return ex.sim.CostComputeFast(units, ops)
	default:
		return ex.sim.CostCompute(units, ops)
	}
}

// parseCost returns the simulated CPU cost of (re-)parsing unit i, charged
// per touch under lazy transformation — lazy physically re-parses every
// sampled unit each time it is drawn.
func (ex *executor) parseCost(i int) cluster.Seconds {
	return ex.sim.CostParse(1, ex.store.Dataset.UnitBytes(i))
}

// passPartials returns the nspans zeroed per-task accumulators of a pass
// into acc. A single span (every SGD and small-batch MGD step) gets acc
// itself: it is zero on entry, and a sum that started at +0 never holds -0,
// so summing there equals summing into a zeroed partial and adding that.
// Otherwise the partials are carved out of the executor's flat arena, reused
// across passes: one (amortized-zero) allocation per pass instead of one
// buffer per shard, reduced in span order — bit-identical to separate buffers.
func (ex *executor) passPartials(acc linalg.Vector, nspans int) []linalg.Vector {
	if cap(ex.partials) < nspans {
		ex.partials = make([]linalg.Vector, nspans)
	}
	partials := ex.partials[:nspans]
	if nspans == 1 {
		partials[0] = acc
		return partials
	}
	dim := len(acc)
	need := nspans * dim
	if cap(ex.accArena) < need {
		ex.accArena = make([]float64, need)
	}
	arena := ex.accArena[:need]
	for i := range arena {
		arena[i] = 0
	}
	for t := 0; t < nspans; t++ {
		partials[t] = arena[t*dim : (t+1)*dim]
	}
	return partials
}

// computePass runs the plan's Computer over len(spans) pool tasks, each
// position mapped to a dataset unit by idx (nil means identity — position IS
// the unit index), each task accumulating into its own slice of the
// accumulator arena, and folds the partials into acc — which must be zero on
// entry — with an ordered tree reduction (a single span accumulates into acc
// itself). The pass state lives in executor fields and the task function is
// made once per trainer, so a pass allocates nothing. The context guard
// enforces the gd.Computer contract around the whole pass.
func (ex *executor) computePass(acc linalg.Vector, spans []span, idx []int) error {
	if len(spans) == 0 {
		return nil
	}
	guard := ex.ctx.Guard()
	partials := ex.passPartials(acc, len(spans))
	ex.passSpans, ex.passIdx = spans, idx
	err := ex.runTasks(len(spans), ex.computeFn)
	if err == nil {
		err = guard.Check(ex.ctx)
	}
	if err == nil && len(partials) > 1 {
		acc.Add(linalg.ReduceTree(partials))
	}
	return err
}

// computeSpan is one compute-pass task: the span passSpans[task] carved into
// fixed-size row blocks (ex.blockSize, boundaries derived from the span
// alone — never from workers), one ComputeBlock call per block into
// partials[task]. A Computer without block kernels arrives wrapped by
// gd.Batched and makes one Compute call per row, in row order.
func (ex *executor) computeSpan(task int) error {
	sp, part := ex.passSpans[task], ex.partials[task]
	for lo := sp.lo; lo < sp.hi; lo += ex.blockSize {
		hi := min(lo+ex.blockSize, sp.hi)
		var blk data.Block
		if ex.passIdx == nil {
			blk = ex.mat.Block(lo, hi)
		} else {
			blk = ex.mat.GatherBlock(ex.passIdx[lo:hi])
		}
		ex.batch.ComputeBlock(blk, ex.ctx, part)
	}
	return nil
}

// iteration runs Sample (optional) + Transform (if lazy) + Compute for one
// iteration and returns the aggregated accumulator UC. The accumulator is
// engine-owned scratch reused across iterations (Updaters must copy whatever
// they keep — the stock ones all clone).
func (ex *executor) iteration() (linalg.Vector, error) {
	plan, ctx := ex.plan, ex.ctx
	d := ctx.NumFeatures
	dim := plan.Computer.AccDim(d)
	if cap(ex.accBuf) < dim {
		ex.accBuf = linalg.NewVector(dim)
		ex.accZero = true
	}
	acc := ex.accBuf[:dim]
	if !ex.accZero {
		acc.Zero()
	}
	ex.accZero = false

	if plan.FullPass(ctx.Iter) {
		ctx.BatchSize = ctx.NumPoints
		return acc, ex.computeFull(acc)
	}

	idx, err := ex.sampler.Draw(ex.senv, plan.BatchSize)
	if err != nil {
		return nil, err
	}
	// Bernoulli returns a binomially-distributed count; Update takes the
	// mean over what was actually drawn.
	ctx.BatchSize = len(idx)
	return acc, ex.computeBatch(idx, acc)
}

// computeFull runs Compute over every unit. The numeric work fans out one
// pool task per shard; the simulated cost is then charged one task per
// partition (reads plus per-unit parse under lazy plus CPU), in partition
// order — the identical sim call sequence a serial run issues.
func (ex *executor) computeFull(acc linalg.Vector) error {
	lazy := ex.plan.Transform == gd.Lazy
	if ex.fullSpans == nil {
		ex.fullSpans = make([]span, len(ex.shards))
		for s, sh := range ex.shards {
			ex.fullSpans[s] = span{lo: sh.Lo, hi: sh.Hi}
		}
	}
	if err := ex.computePass(acc, ex.fullSpans, nil); err != nil {
		return err
	}

	// Ops is a pure function of a unit's nnz, so the per-partition ops sums
	// are iteration-invariant:
	// compute them once on the first full pass and reuse them after,
	// keeping the driver's per-iteration cost loop O(partitions) instead of
	// O(units) for eager plans. (Lazy plans still charge the per-touch
	// parse cost every pass — that is the point of lazy costing.)
	cacheOps := ex.opsByPart == nil
	if cacheOps {
		ex.opsByPart = make([]float64, len(ex.store.Partitions))
	}
	costs := ex.costBuf[:0]
	for pi, p := range ex.store.Partitions {
		c := ex.sim.CostReadPartition(p, ex.store.Layout)
		if lazy {
			for i := p.Lo; i < p.Hi; i++ {
				c += ex.parseCost(i)
			}
		}
		if cacheOps {
			ex.opsByPart[pi] = ex.opsSum(p.Lo, p.Hi, nil)
		}
		c += ex.costComputeCPU(p.Units(), ex.opsByPart[pi])
		costs = append(costs, c)
	}
	ex.costBuf = costs
	if ex.distributedInput(ex.store.TotalBytes) {
		ex.sim.RunWaves(costs)
		// Partial aggregates (one per executor) reduce to the driver.
		execs := ex.sim.Cfg.Executors()
		ex.sim.Transfer(int64(execs*len(acc))*8, 1)
	} else {
		var sum cluster.Seconds
		for _, c := range costs {
			sum += c
		}
		ex.sim.RunLocal(sum)
	}
	return nil
}

// computeBatch runs Compute over the sampled unit indices: the numeric pass
// over stable chunks of the batch, then cost charging. Placement follows the
// batch's byte size: small batches run on the driver (after shipping the
// sampled units there), large ones run as distributed tasks grouped by
// partition.
func (ex *executor) computeBatch(idx []int, acc linalg.Vector) error {
	lazy := ex.plan.Transform == gd.Lazy
	spans := ex.chunkSpans(len(idx), batchChunkTarget)
	if err := ex.computePass(acc, spans, idx); err != nil {
		return err
	}

	var batchBytes int64
	for _, i := range idx {
		batchBytes += ex.store.Dataset.UnitBytes(i)
	}
	if !ex.distributedInput(batchBytes) {
		// Centralized: sampled units travel to the driver, then one task.
		ex.sim.Transfer(batchBytes, 1)
		var cpu cluster.Seconds
		if lazy {
			for _, i := range idx {
				cpu += ex.parseCost(i)
			}
		}
		cpu += ex.costComputeCPU(len(idx), ex.opsSum(0, len(idx), idx))
		ex.sim.RunLocal(cpu)
		return nil
	}

	// Distributed: group the batch by partition, one task per partition,
	// walked in ascending partition order so the jitter stream (and with it
	// the simulated makespan) is reproducible run-to-run.
	byPart := map[int][]int{}
	for _, i := range idx {
		p, err := ex.store.PartitionOf(i)
		if err != nil {
			return err
		}
		byPart[p.ID] = append(byPart[p.ID], i)
	}
	order := make([]int, 0, len(byPart))
	for pid := range byPart {
		order = append(order, pid)
	}
	sort.Ints(order)
	costs := ex.costBuf[:0]
	for _, pid := range order {
		units := byPart[pid]
		var c cluster.Seconds
		if lazy {
			for _, i := range units {
				c += ex.parseCost(i)
			}
		}
		c += ex.costComputeCPU(len(units), ex.opsSum(0, len(units), units))
		costs = append(costs, c)
	}
	ex.costBuf = costs
	ex.sim.RunWaves(costs)
	execs := ex.sim.Cfg.Executors()
	if len(byPart) < execs {
		execs = len(byPart)
	}
	ex.sim.Transfer(int64(execs*len(acc))*8, 1)
	return nil
}
