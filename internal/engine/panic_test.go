package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// panicComputer is a user-defined Compute operator that blows up on its Nth
// call — the misbehaving-UDF case panic isolation exists for.
type panicComputer struct {
	inner  gd.Computer
	failAt int64
	calls  *atomic.Int64
}

func (p panicComputer) Compute(u data.Row, ctx *gd.Context, acc linalg.Vector) {
	if p.calls.Add(1) == p.failAt {
		panic("udf exploded mid-shard")
	}
	p.inner.Compute(u, ctx, acc)
}

func (p panicComputer) AccDim(d int) int    { return p.inner.AccDim(d) }
func (p panicComputer) Ops(nnz int) float64 { return p.inner.Ops(nnz) }

// panicTransformer is a user-defined Transform operator that panics on one
// unit, exercising the materialize fan-out path.
type panicTransformer struct {
	inner gd.Transformer
	n     *atomic.Int64
}

func (p panicTransformer) Transform(raw string, ctx *gd.Context) (data.Row, error) {
	if p.n.Add(1) == 100 {
		panic("transformer exploded")
	}
	return p.inner.Transform(raw, ctx)
}

func panicDataset(t *testing.T) *storage.Store {
	t.Helper()
	ds := synth.MustGenerate(synth.Spec{
		Name: "panic-test", Task: data.TaskLinearRegression,
		N: 2000, D: 20, Density: 1, Noise: 0.1, Margin: 2, Seed: 11,
	})
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPanicIsolation pins that a panicking user-defined operator fails its
// run with a captured stack instead of killing the process, at every worker
// count, and that the executor and its pool remain usable afterward (the CI
// race leg runs this under -race).
func TestPanicIsolation(t *testing.T) {
	st := panicDataset(t)
	p := gd.Params{Task: data.TaskLinearRegression, Format: st.Dataset.Format, Tolerance: 1e-3, MaxIter: 50}

	for _, workers := range []int{1, 2, 8} {
		t.Run("computer", func(t *testing.T) {
			plan := gd.NewBGD(p)
			var calls atomic.Int64
			plan.Computer = panicComputer{inner: plan.Computer, failAt: 3000, calls: &calls}
			sim := cluster.New(cluster.Default())
			_, err := Run(sim, st, &plan, Options{Seed: 4, Workers: workers})
			assertPanicError(t, err, "udf exploded mid-shard")

			// The pool must be reusable: a clean plan on the same process
			// (same GOMAXPROCS pool machinery) still trains to completion.
			clean := gd.NewBGD(p)
			res, err := Run(cluster.New(cluster.Default()), st, &clean, Options{Seed: 4, Workers: workers})
			if err != nil {
				t.Fatalf("clean run after recovered panic (workers=%d): %v", workers, err)
			}
			if res.Iterations == 0 {
				t.Fatal("clean run did no work")
			}
		})
		t.Run("transformer", func(t *testing.T) {
			plan := gd.NewBGD(p)
			var n atomic.Int64
			plan.Transformer = panicTransformer{inner: plan.Transformer, n: &n}
			sim := cluster.New(cluster.Default())
			_, err := Run(sim, st, &plan, Options{Seed: 4, Workers: workers})
			assertPanicError(t, err, "transformer exploded")
		})
	}
}

func assertPanicError(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("run with panicking operator returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *PanicError", err, err)
	}
	if pe.Value != want {
		t.Fatalf("panic value = %v, want %q", pe.Value, want)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("PanicError carries no stack trace")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error text %q does not surface the panic value", err.Error())
	}
}
