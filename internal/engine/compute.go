package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
)

// This file holds the two execution paths of the numeric phases. The split
// the whole design hangs on: real work (parsing, gradient math, loss sums)
// fans out over the worker pool, while every sim.Cost*/Run*/Transfer call
// stays on the driver goroutine in a fixed order. The serial path is the
// parallel path with one worker — same shards, same per-shard partials, same
// ordered tree reduction — so Workers changes wall-clock time and nothing
// else.
//
// Since the columnar-arena refactor the stock-transformer paths never
// materialize per-row objects at all: workers index the dataset's Matrix
// directly (ex.row is a zero-copy view) and the per-task accumulators are
// carved from one flat arena, so a steady-state compute pass performs no
// heap allocation.

// eagerTransform parses the whole dataset upfront — with a stock transformer
// the engine adopts the dataset's columnar arena as-is (re-parsing would
// reproduce it bit-for-bit); custom UDFs fan the real parsing out over the
// worker pool, one task per shard writing a disjoint slice of the row memo.
// Either way the simulated cost is charged one distributed task per partition
// (or locally when the dataset is a single partition), exactly as a serial
// execution would.
func (ex *executor) eagerTransform() error {
	ds := ex.store.Dataset
	if ex.stockTransformer() {
		ex.mat = ds.Mat
	} else {
		ex.rows = make([]data.Row, ds.N())
		guard := ex.ctx.Guard()
		err := ex.runTasks(len(ex.shards), func(task int) error {
			sh := ex.shards[task]
			for i := sh.Lo; i < sh.Hi; i++ {
				r, err := ex.plan.Transformer.Transform(ds.Raw[i], ex.ctx)
				if err != nil {
					return fmt.Errorf("engine: transform unit %d: %w", i, err)
				}
				ex.rows[i] = r
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := guard.Check(ex.ctx); err != nil {
			return err
		}
	}
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
	return nil
}

// ensureLazyBuffers initializes the lazy-transformation memo once, on the
// driver, before any parallel region touches it. With the stock transformer
// the dataset's arena is read directly (re-parsing Raw would reproduce it
// bit-for-bit; the per-touch parse cost is still charged); otherwise rows are
// parsed on first touch and memoized.
func (ex *executor) ensureLazyBuffers() {
	if ex.mat != nil || ex.rows != nil {
		return
	}
	if ex.stockTransformer() {
		ex.mat = ex.store.Dataset.Mat
		ex.lazy = nil
	} else {
		n := ex.store.Dataset.N()
		ex.rows = make([]data.Row, n)
		ex.lazy = make([]bool, n)
	}
}

// transformRow parses unit i under lazy transformation if it has not been
// parsed yet. Callers hand distinct goroutines disjoint index sets, so the
// memo writes are race-free; transformRow itself performs no sim calls.
func (ex *executor) transformRow(i int) error {
	if ex.lazy == nil || ex.lazy[i] {
		return nil
	}
	r, err := ex.plan.Transformer.Transform(ex.store.Dataset.Raw[i], ex.ctx)
	if err != nil {
		return fmt.Errorf("engine: lazy transform unit %d: %w", i, err)
	}
	ex.rows[i] = r
	ex.lazy[i] = true
	return nil
}

// opsSumRange accumulates the Computer's per-unit op estimate over units
// [lo, hi) in index order — the quantity the driver charges a compute task
// with. On a dense arena every row has the same stored-value count, so the
// per-row Ops interface call is hoisted to one evaluation per range (the
// blocked analogue of the kernel dispatch); the float accumulation stays one
// add per row, keeping the sum bit-identical to the naive per-row loop.
func (ex *executor) opsSumRange(lo, hi int) float64 {
	var ops float64
	if m := ex.mat; m != nil && m.IsDense() {
		per := ex.plan.Computer.Ops(m.Stride())
		for i := lo; i < hi; i++ {
			ops += per
		}
		return ops
	}
	for i := lo; i < hi; i++ {
		ops += ex.plan.Computer.Ops(ex.rowNNZ(i))
	}
	return ops
}

// opsSumIdx is opsSumRange over an explicit unit-index list (sampled
// batches), with the same dense hoist and the same add-per-row order.
func (ex *executor) opsSumIdx(idx []int) float64 {
	var ops float64
	if m := ex.mat; m != nil && m.IsDense() {
		per := ex.plan.Computer.Ops(m.Stride())
		for range idx {
			ops += per
		}
		return ops
	}
	for _, i := range idx {
		ops += ex.plan.Computer.Ops(ex.rowNNZ(i))
	}
	return ops
}

// costComputeCPU charges one compute task's CPU cost: the per-block
// amortized unit overhead (Sim.CostCompute, see the calibration table at
// cluster.ComputeUnitOverheadFrac) when this pass actually executes
// blocked, the full per-row overhead (Sim.CostCPU) otherwise. The
// eligibility mirrors computeSpan exactly — a BatchComputer still runs (and
// is billed) row by row when the pass reads a custom-transformer row memo
// instead of the arena, or when the computer is randomized. transform is
// the pass's lazy-scan flag.
func (ex *executor) costComputeCPU(units int, ops float64, transform bool) cluster.Seconds {
	if ex.batch != nil && ex.mat != nil && !(transform && ex.lazy != nil) {
		if _, randomized := ex.plan.Computer.(gd.RandomizedComputer); !randomized {
			if ex.fast {
				return ex.sim.CostComputeFast(units, ops)
			}
			return ex.sim.CostCompute(units, ops)
		}
	}
	return ex.sim.CostCPU(units, ops)
}

// parseCost returns the simulated CPU cost of (re-)parsing unit i, charged
// per touch under lazy transformation regardless of memoization — lazy
// physically re-parses every sampled unit each time it is drawn.
func (ex *executor) parseCost(i int) cluster.Seconds {
	return ex.sim.CostParse(1, int64(len(ex.store.Dataset.Raw[i]))+1)
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

// computePass is the shared heart of both compute paths: it runs the plan's
// Computer over len(spans) pool tasks, each position mapped to a dataset unit
// by idx (nil means identity — position IS the unit index), each task
// accumulating into its own slice of the accumulator arena, and folds the
// partials into acc — which must be zero on entry — with an ordered tree
// reduction (a single span accumulates into acc itself). When transform is set
// (lazy full scans) workers parse-and-memoize on the fly; spans must then
// address disjoint unit ranges. The context guard enforces the gd.Computer
// contract around the whole pass.
func (ex *executor) computePass(acc linalg.Vector, spans []span, idx []int, transform bool) error {
	if len(spans) == 0 {
		return nil
	}
	ctx := ex.ctx
	guard := ctx.Guard()
	partials := ex.passPartials(acc, len(spans))

	var err error
	if ex.workers <= 1 || len(spans) == 1 {
		// Serial fast path: same spans, same partials, same reduction — no
		// task closure, no pool. Panic isolation still applies: a UDF blowing
		// up here must fail the run, not the process, same as on the pool.
		for task := 0; task < len(spans); task++ {
			if err = ex.safeComputeSpan(task, spans, partials, idx, transform); err != nil {
				break
			}
		}
	} else {
		err = ex.runTasks(len(spans), func(task int) error {
			return ex.computeSpan(task, spans, partials, idx, transform)
		})
	}
	if err == nil {
		err = guard.Check(ctx)
	}
	if err == nil && len(partials) > 1 {
		acc.Add(linalg.ReduceTree(partials))
	}
	return err
}

// computeSpan executes one compute-pass task: the plan's Computer over every
// position of spans[task], accumulating into partials[task]. On the stock
// arena path with a batch-capable Computer the span is carved into
// fixed-size row blocks (ex.blockSize, boundaries derived from the span
// alone — never from workers) and executed one devirtualized ComputeBlock
// call per block; the per-row loops below remain for custom transformers,
// randomized computers and non-batch Computer UDFs, and produce bit-identical
// accumulators (the BatchComputer contract the block property test pins).
func (ex *executor) computeSpan(task int, spans []span, partials []linalg.Vector, idx []int, transform bool) error {
	plan, ctx := ex.plan, ex.ctx
	part := partials[task]
	rc, randomized := plan.Computer.(gd.RandomizedComputer)
	var rng *rand.Rand
	if randomized {
		rng = ex.shardRNG(ctx.Iter, task)
	}
	sp := spans[task]
	// Lazy plans on the stock transformer read the arena directly — there is
	// no memo to fill, so the transform step degenerates to a no-op and the
	// fast paths below stay eligible.
	transform = transform && ex.lazy != nil
	if mat := ex.mat; mat != nil && !transform && !randomized {
		if bc := ex.batch; bc != nil {
			// Blocked stock path: one kernel call per row block.
			for lo := sp.lo; lo < sp.hi; lo += ex.blockSize {
				hi := lo + ex.blockSize
				if hi > sp.hi {
					hi = sp.hi
				}
				var blk data.Block
				if idx == nil {
					blk = mat.Block(lo, hi)
				} else {
					blk = mat.GatherBlock(idx[lo:hi])
				}
				bc.ComputeBlock(blk, ctx, part)
			}
			return nil
		}
		// Per-row stock path: straight arena scan, no memo/RNG branch.
		if idx == nil {
			for pos := sp.lo; pos < sp.hi; pos++ {
				plan.Computer.Compute(mat.Row(pos), ctx, part)
			}
		} else {
			for pos := sp.lo; pos < sp.hi; pos++ {
				plan.Computer.Compute(mat.Row(idx[pos]), ctx, part)
			}
		}
		return nil
	}
	for pos := sp.lo; pos < sp.hi; pos++ {
		i := pos
		if idx != nil {
			i = idx[pos]
		}
		if transform {
			if err := ex.transformRow(i); err != nil {
				return err
			}
		}
		if randomized {
			rc.ComputeRand(ex.row(i), ctx, part, rng)
		} else {
			plan.Computer.Compute(ex.row(i), ctx, part)
		}
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

	fullBatch := plan.Sampling == gd.NoSampling
	if plan.Algorithm == gd.SVRG && plan.UpdateFrequency > 0 && ctx.Iter%plan.UpdateFrequency == 1 {
		fullBatch = true // SVRG snapshot iteration sweeps everything
	}

	if fullBatch {
		ctx.BatchSize = ctx.NumPoints
		return acc, ex.computeFull(acc)
	}

	ctx.BatchSize = plan.BatchSize
	idx, err := ex.sampler.Draw(ex.senv, plan.BatchSize)
	if err != nil {
		return nil, err
	}
	if plan.Algorithm != gd.SVRG {
		// Bernoulli returns a binomially-distributed count; Update takes
		// the mean over what was actually drawn.
		ctx.BatchSize = len(idx)
	}
	return acc, ex.computeBatch(idx, acc)
}

// computeFull runs Compute over every unit. The numeric work fans out one
// pool task per shard; the simulated cost is then charged one task per
// partition (reads plus per-unit parse under lazy plus CPU), in partition
// order — the identical sim call sequence a serial run issues.
func (ex *executor) computeFull(acc linalg.Vector) error {
	plan := ex.plan
	lazy := plan.Transform == gd.Lazy
	if lazy {
		ex.ensureLazyBuffers()
	}
	if ex.fullSpans == nil {
		ex.fullSpans = make([]span, len(ex.shards))
		for s, sh := range ex.shards {
			ex.fullSpans[s] = span{lo: sh.Lo, hi: sh.Hi}
		}
	}
	if err := ex.computePass(acc, ex.fullSpans, nil, lazy); err != nil {
		return err
	}

	// Ops is a pure function of a unit's nnz and a full pass leaves every
	// unit parsed, so the per-partition ops sums are iteration-invariant:
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
			ex.opsByPart[pi] = ex.opsSumRange(p.Lo, p.Hi)
		}
		c += ex.costComputeCPU(p.Units(), ex.opsByPart[pi], lazy)
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

// parseBatch memoizes every not-yet-parsed unit a sampled batch touches,
// fanning the parsing out over the pool. Deduplication keeps the parallel
// writes disjoint: a batch may draw the same unit twice (random-partition
// sampling does), and two tasks must not both write its memo slot.
func (ex *executor) parseBatch(idx []int) error {
	if ex.lazy == nil {
		return nil // stock transformer: the dataset arena is read directly
	}
	var need []int
	seen := make(map[int]struct{}, len(idx))
	for _, i := range idx {
		if ex.lazy[i] {
			continue
		}
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		need = append(need, i)
	}
	if len(need) == 0 {
		return nil
	}
	guard := ex.ctx.Guard()
	spans := ex.chunkSpans(len(need), batchChunkTarget)
	err := ex.runTasks(len(spans), func(task int) error {
		sp := spans[task]
		for pos := sp.lo; pos < sp.hi; pos++ {
			if err := ex.transformRow(need[pos]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return guard.Check(ex.ctx)
}

// computeBatch runs Compute over the sampled unit indices: lazy parsing
// first (deduplicated, pooled), then the numeric pass over stable chunks of
// the batch, then cost charging. Placement follows the batch's byte size:
// small batches run on the driver (after shipping the sampled units there),
// large ones run as distributed tasks grouped by partition.
func (ex *executor) computeBatch(idx []int, acc linalg.Vector) error {
	plan := ex.plan
	lazy := plan.Transform == gd.Lazy
	if lazy {
		ex.ensureLazyBuffers()
		if err := ex.parseBatch(idx); err != nil {
			return err
		}
	}
	spans := ex.chunkSpans(len(idx), batchChunkTarget)
	if err := ex.computePass(acc, spans, idx, false); err != nil {
		return err
	}

	var batchBytes int64
	for _, i := range idx {
		batchBytes += int64(len(ex.store.Dataset.Raw[i])) + 1
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
		cpu += ex.costComputeCPU(len(idx), ex.opsSumIdx(idx), false)
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
		var c cluster.Seconds
		if lazy {
			for _, i := range byPart[pid] {
				c += ex.parseCost(i)
			}
		}
		c += ex.costComputeCPU(len(byPart[pid]), ex.opsSumIdx(byPart[pid]), false)
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
