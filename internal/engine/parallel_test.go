package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// The parallel-executor determinism guarantee: for any Workers setting the
// engine produces bit-identical weights, iteration counts, deltas, simulated
// time and accounting. Only wall-clock changes. These tests pin that down
// across every task, algorithm family and transform placement.

func taskDataset(t *testing.T, task data.TaskKind, n int) *data.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Spec{
		Name: "par-" + task.String(), Task: task,
		N: n, D: 24, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func runWorkers(t *testing.T, st *storage.Store, plan gd.Plan, workers int) *Result {
	t.Helper()
	sim := cluster.New(cluster.Default()) // jitter on: the harder case
	res, err := Run(sim, st, &plan, Options{Seed: 7, Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// sameResult asserts bitwise equality of everything the acceptance criteria
// name: weights, iterations, per-iteration deltas, simulated time, and the
// full cluster accounting.
func sameResult(t *testing.T, label string, base, got *Result, workers int) {
	t.Helper()
	if !got.Weights.Equal(base.Weights, 0) {
		t.Fatalf("%s: workers=%d changed weights", label, workers)
	}
	if got.Iterations != base.Iterations {
		t.Fatalf("%s: workers=%d iterations %d != %d", label, workers, got.Iterations, base.Iterations)
	}
	if len(got.Deltas) != len(base.Deltas) {
		t.Fatalf("%s: workers=%d delta count %d != %d", label, workers, len(got.Deltas), len(base.Deltas))
	}
	for i := range got.Deltas {
		if got.Deltas[i] != base.Deltas[i] {
			t.Fatalf("%s: workers=%d delta[%d] %g != %g", label, workers, i, got.Deltas[i], base.Deltas[i])
		}
	}
	if got.Time != base.Time {
		t.Fatalf("%s: workers=%d simulated time %g != %g", label, workers, got.Time, base.Time)
	}
	if !reflect.DeepEqual(got.Acct, base.Acct) {
		t.Fatalf("%s: workers=%d accounting diverged:\n got %+v\nwant %+v", label, workers, got.Acct, base.Acct)
	}
	if got.Converged != base.Converged || got.Budgeted != base.Budgeted || got.Diverged != base.Diverged {
		t.Fatalf("%s: workers=%d termination flags diverged", label, workers)
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	tasks := []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression}
	for _, task := range tasks {
		ds := taskDataset(t, task, 600)
		st := buildStore(t, ds, 2<<10) // several partitions
		p := gd.Params{Task: task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 30, Lambda: 0.05, BatchSize: 32}

		plans := []gd.Plan{
			gd.NewBGD(p),
			gd.NewMGD(p, gd.Eager, gd.ShuffledPartition),
			gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition),
			gd.NewSGD(p, gd.Eager, gd.RandomPartition),
			gd.NewSVRG(p, 5),
			gd.NewLineSearchBGD(p, 0.5),
		}
		for _, plan := range plans {
			label := fmt.Sprintf("%s/%s", task, plan.Name())
			base := runWorkers(t, st, plan, 1)
			for _, workers := range []int{2, 8} {
				got := runWorkers(t, st, plan, workers)
				sameResult(t, label, base, got, workers)
			}
		}
	}
}

// TestDefaultWorkersMatchesSerial: the GOMAXPROCS default (Workers: 0) must
// sit on the same guarantee as any explicit count.
func TestDefaultWorkersMatchesSerial(t *testing.T) {
	ds := taskDataset(t, data.TaskSVM, 400)
	st := buildStore(t, ds, 2<<10)
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 20, Lambda: 0.05, BatchSize: 16}
	plan := gd.NewBGD(p)
	base := runWorkers(t, st, plan, 1)
	got := runWorkers(t, st, plan, 0)
	sameResult(t, "default-workers", base, got, 0)
}

// indexFailingTransformer is the stateless (parallel-legal) failure injector:
// it fails on one exact raw line, so the error does not depend on call order.
type indexFailingTransformer struct {
	inner gd.Transformer
	raw   string
}

func (f indexFailingTransformer) Transform(raw string, ctx *gd.Context) (data.Row, error) {
	if raw == f.raw {
		return data.Row{}, fmt.Errorf("injected parallel parse failure")
	}
	return f.inner.Transform(raw, ctx)
}

// TestParallelTransformSurfacesDeterministicError: the pool surfaces the same
// first-in-order error a serial run would, for any worker count.
func TestParallelTransformSurfacesDeterministicError(t *testing.T) {
	ds := taskDataset(t, data.TaskSVM, 300)
	st := buildStore(t, ds, 2<<10)
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 10, BatchSize: 16}
	for _, workers := range []int{1, 8} {
		plan := gd.NewBGD(p)
		plan.Transformer = indexFailingTransformer{inner: gd.FormatTransformer{Format: ds.Format}, raw: ds.Raw[137]}
		sim := cluster.New(noJitterCfg())
		_, err := Run(sim, st, &plan, Options{Seed: 1, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "injected parallel parse failure") {
			t.Fatalf("workers=%d: err = %v, want injected failure", workers, err)
		}
		if !strings.Contains(err.Error(), "unit 137") {
			t.Fatalf("workers=%d: error lost the failing unit: %v", workers, err)
		}
	}
}

// contractBreakingComputer mutates the context mid-compute; the guard must
// fail the run instead of letting a parallel execution corrupt state.
type contractBreakingComputer struct {
	inner gd.Computer
}

func (c contractBreakingComputer) Compute(u data.Row, ctx *gd.Context, acc linalg.Vector) {
	c.inner.Compute(u, ctx, acc)
	ctx.Put("illegal", 1)
}
func (c contractBreakingComputer) AccDim(d int) int    { return c.inner.AccDim(d) }
func (c contractBreakingComputer) Ops(nnz int) float64 { return c.inner.Ops(nnz) }

func TestComputeContractViolationIsCaught(t *testing.T) {
	ds := taskDataset(t, data.TaskSVM, 100)
	st := buildStore(t, ds, 4<<10)
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 5, BatchSize: 16}
	plan := gd.NewBGD(p)
	plan.Computer = contractBreakingComputer{inner: plan.Computer}
	sim := cluster.New(noJitterCfg())
	// Workers: 1 keeps the violation data-race-free; the guard must still
	// reject it on the serial path.
	_, err := Run(sim, st, &plan, Options{Seed: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "compute contract") {
		t.Fatalf("err = %v, want compute-contract violation", err)
	}
}
