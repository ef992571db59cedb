package engine

import (
	"fmt"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// The batched-execution equivalence guarantee, wired into the same harness
// the parallel/resume/arena tests use: for every loss (via the three tasks),
// both arena layouts (dense strided and CSR) and a sweep of block sizes —
// including 1 (degenerate), 7 (spans not divisible by the width), the
// default 512 and a width larger than any span — training through the
// blocked gd.BatchComputer path must be bit-identical to the per-row path:
// same weights, iterations, deltas, simulated time and accounting. The
// per-row reference is produced by stripping the BatchComputer capability
// from the stock Computer, which the engine then runs through gd.Batched's
// row adapter: one Compute call per row.

// rowOnly wraps a Computer so that ONLY the Computer method set is exposed:
// the engine's BatchComputer type assertion fails, gd.Batched wraps it, and
// every block makes one Compute call per row. This is also exactly what a
// custom non-batch Computer UDF looks like to the engine, so the sweep
// doubles as the fallback-transparency test.
type rowOnly struct{ gd.Computer }

// sameNumerics asserts bitwise equality of everything the block kernels can
// influence — weights, iteration count, per-iteration deltas, termination —
// leaving simulated time and accounting to the caller (they differ between
// batched and per-row Computers by the calibrated dispatch overhead).
func sameNumerics(t *testing.T, label string, base, got *Result) {
	t.Helper()
	if !got.Weights.Equal(base.Weights, 0) {
		t.Fatalf("%s: weights diverge from the per-row path", label)
	}
	if got.Iterations != base.Iterations {
		t.Fatalf("%s: iterations %d != %d", label, got.Iterations, base.Iterations)
	}
	if len(got.Deltas) != len(base.Deltas) {
		t.Fatalf("%s: delta count %d != %d", label, len(got.Deltas), len(base.Deltas))
	}
	for i := range got.Deltas {
		if got.Deltas[i] != base.Deltas[i] {
			t.Fatalf("%s: delta[%d] %g != %g", label, i, got.Deltas[i], base.Deltas[i])
		}
	}
	if got.Converged != base.Converged || got.Budgeted != base.Budgeted || got.Diverged != base.Diverged {
		t.Fatalf("%s: termination flags diverge", label)
	}
}

func layoutDataset(t *testing.T, task data.TaskKind, dense bool, n int) *data.Dataset {
	t.Helper()
	spec := synth.Spec{
		Name: "blk-" + task.String(), Task: task,
		N: n, D: 24, Noise: 0.1, Margin: 1, Seed: 17,
	}
	if dense {
		spec.Density = 1
	} else {
		spec.Density = 0.5
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Mat.IsDense() != dense {
		t.Fatalf("%v dense=%v: generator produced IsDense=%v", task, dense, ds.Mat.IsDense())
	}
	return ds
}

// customLoss strips the BlockGradient capability from a stock loss — what a
// user-defined gradients.Gradient looks like to the stack.
type customLoss struct{ gradients.Gradient }

// A stock computer wrapping a Gradient WITHOUT block kernels must stay on
// the per-row path end to end: same numerics AND same simulated time and
// accounting as a plain per-row Computer, i.e. billed at the full per-unit
// dispatch overhead, never the amortized batched rate (gd.KernelTier gates
// both execution and cost charging together).
func TestCustomGradientPlanStaysPerRowBilled(t *testing.T) {
	ds := layoutDataset(t, data.TaskLogisticRegression, true, 300)
	st := buildStore(t, ds, 2<<10)
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 20, Lambda: 0.05}
	plan := gd.NewBGD(p)
	plan.Computer = gd.GradientComputer{Gradient: customLoss{gradients.Logistic{}}}

	rowPlan := plan
	rowPlan.Computer = rowOnly{plan.Computer}
	base := runWorkers(t, st, rowPlan, 1)
	for _, workers := range []int{1, 2, 8} {
		sameResult(t, "custom-gradient/BGD", base, runWorkers(t, st, plan, workers), workers)
		sameResult(t, "row-only/BGD", base, runWorkers(t, st, rowPlan, workers), workers)
	}
}

// runBlocked is Run with the executor's row-block width set to bs instead of
// the blockSize constant: block kernels must be bit-identical to the per-row
// path at every width, so the tests sweep widths the engine never picks.
func runBlocked(sim *cluster.Sim, st *storage.Store, plan *gd.Plan, opts Options, bs int) (*Result, error) {
	tr, err := NewTrainer(sim, st, plan, opts)
	if err != nil {
		return nil, err
	}
	tr.ex.blockSize = bs
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			return nil, err
		}
	}
	return tr.Finish(), nil
}

func TestBlockedComputeMatchesRowComputeBitwise(t *testing.T) {
	tasks := []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression}
	// 500 units over 2 KB partitions: several shards with boundaries that
	// are not multiples of any swept width, so partial blocks occur at span
	// tails, and a width larger than every span exercises the one-block-
	// per-span case.
	const n = 500
	blockSizes := []int{1, 7, 512, n}
	for _, task := range tasks {
		for _, dense := range []bool{true, false} {
			ds := layoutDataset(t, task, dense, n)
			st := buildStore(t, ds, 2<<10)
			p := gd.Params{Task: task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 25, Lambda: 0.05, BatchSize: 32}

			plans := []gd.Plan{
				gd.NewBGD(p), // full passes: AddGradientBlock
				gd.NewMGD(p, gd.Eager, gd.ShuffledPartition), // sampled batches: GatherBlock path
				gd.NewSVRG(p, 5),            // two-slot accumulator, snapshot sweeps
				gd.NewLineSearchBGD(p, 0.5), // LossBlock grad + probe phases
			}
			for _, plan := range plans {
				layout := "csr"
				if dense {
					layout = "dense"
				}
				label := fmt.Sprintf("%v/%s/%s", task, layout, plan.Name())

				rowPlan := plan
				rowPlan.Computer = rowOnly{plan.Computer}
				base := runWorkers(t, st, rowPlan, 1)
				// The per-row Computer runs on the pool like any other:
				// every worker count gives the same bits, time and
				// accounting included.
				for _, workers := range []int{2, 8} {
					sameResult(t, label+"/per-row", base, runWorkers(t, st, rowPlan, workers), workers)
				}

				var first *Result
				for _, bs := range blockSizes {
					sim := cluster.New(cluster.Default())
					res, err := runBlocked(sim, st, &plan, Options{Seed: 7, Workers: 1}, bs)
					if err != nil {
						t.Fatalf("%s: block=%d: %v", label, bs, err)
					}
					blabel := fmt.Sprintf("%s/block=%d", label, bs)
					// Numerics must match the per-row reference bit for bit
					// at every width.
					sameNumerics(t, blabel, base, res)
					// Simulated time legitimately differs from the per-row
					// reference: a batch-capable Computer is charged the
					// amortized dispatch overhead (BlockTier), a per-row
					// UDF the full one (RowTier) — never the other way round.
					if res.Time >= base.Time {
						t.Fatalf("%s: blocked sim time %g not below per-row %g", blabel, res.Time, base.Time)
					}
					// Across block widths everything — time and accounting
					// included — is bit-identical: the width is invisible to
					// both numerics and cost charging.
					if first == nil {
						first = res
					} else {
						sameResult(t, blabel, first, res, 1)
					}
				}
			}
		}
	}
}
