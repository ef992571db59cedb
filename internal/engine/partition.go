package engine

import (
	"ml4all/internal/data"
	"ml4all/internal/storage"
)

// shardUnitTarget caps how many data units one shard (one worker-pool task)
// holds. Shards are carved from storage partitions by Store.Shards, so the
// boundaries depend only on the dataset layout — never on the worker count —
// which is what keeps the partial-sum structure, and therefore every
// floating-point result, identical between Workers=1 and Workers=N. The value
// trades scheduling granularity against per-task overhead: 4096 units keeps a
// paper-scale 2 MB partition at a handful of tasks while giving an 8-way pool
// enough slack to balance.
const shardUnitTarget = 4096

// batchChunkTarget plays the same role for sampled batches: a drawn index
// list is cut into contiguous chunks of at most this many positions. Chunk
// boundaries depend only on the batch length, keeping MGD/SGD results
// worker-count independent too.
const batchChunkTarget = 1024

// blockSize is the row-block width of the batched compute path: spans are
// carved into runs of this many rows and each run is one
// gd.BatchComputer.ComputeBlock call. 512 rows keeps a
// block's margins (4 KB) and a paper-scale dense block (512×50 features,
// 200 KB) L2-resident while amortizing the per-call dispatch to noise; block
// boundaries derive from span boundaries alone, so — like shards — they
// never depend on the worker count, and the kernels are bit-identical to the
// per-row path for every width anyway.
const blockSize = data.DefaultBlockSize

// span is a half-open range of positions [lo, hi) processed as one pool task.
type span struct{ lo, hi int }

// chunkSpans cuts [0, n) into near-equal contiguous spans of at most max
// positions, via the same storage.SplitEven boundary rule shards use. It is
// deterministic in n and max only. The returned slice reuses the executor's
// span scratch and is only valid until the next call.
func (ex *executor) chunkSpans(n, max int) []span {
	spans := ex.spanBuf[:0]
	storage.SplitEven(0, n, max, func(lo, hi int) {
		spans = append(spans, span{lo: lo, hi: hi})
	})
	ex.spanBuf = spans
	return spans
}

// runTasks executes fn(task) for every task in [0, n), fanning out over the
// executor's worker pool, and returns the error of the lowest-numbered
// failing task — exactly what a serial in-order execution surfaces first.
// With one effective worker (Workers: 1, or fewer tasks than workers would
// help) it degenerates to an inline ordered loop — the serial path.
//
// Workers pull task indices from a shared counter, so scheduling is dynamic,
// but tasks must write only task-private state (per-shard accumulators,
// disjoint unit ranges); the caller merges results in task order afterwards,
// which is what makes scheduling invisible to the numerics. Once a task
// fails, higher-numbered pending tasks are skipped — they cannot change the
// winning error — so a failure cancels the bulk of the remaining work, while
// lower-numbered tasks still run to keep the selected error independent of
// scheduling.
func (ex *executor) runTasks(n int, fn func(task int) error) error {
	workers := ex.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := safeCall(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	if cap(ex.errBuf) < n {
		ex.errBuf = make([]error, n)
	}
	errs := ex.errBuf[:n]
	for i := range errs {
		errs[i] = nil
	}
	// The pool scaffolding (shared worker closure, counters, wait group)
	// lives on the executor and is reused across passes, so a parallel pass
	// costs one goroutine spawn per worker and no per-pass control-state
	// allocation. All fields are written before the spawns and read after
	// Wait, so reuse is race-free.
	ex.taskFn = fn
	ex.taskN = n
	ex.taskNext.Store(0)
	ex.taskMinFailed.Store(int64(n))
	if ex.workFn == nil {
		ex.workFn = func() {
			defer ex.taskWG.Done()
			n := ex.taskN
			for {
				i := int(ex.taskNext.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) >= ex.taskMinFailed.Load() {
					continue
				}
				if err := safeCall(ex.taskFn, i); err != nil {
					ex.errBuf[i] = err
					for {
						cur := ex.taskMinFailed.Load()
						if int64(i) >= cur || ex.taskMinFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}
	}
	ex.taskWG.Add(workers)
	for w := 0; w < workers; w++ {
		go ex.workFn()
	}
	ex.taskWG.Wait()
	ex.taskFn = nil
	return firstError(errs)
}

// firstError returns the error of the lowest-numbered task, matching what a
// serial in-order execution would have surfaced first.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
