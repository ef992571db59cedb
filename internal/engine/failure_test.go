package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
)

// Failure-injection tests: the engine must surface operator failures as
// errors (with context) and never mask divergence as convergence.

// failingTransformer errors on every nth line. It counts calls, which is
// mutable state the parallel transform contract forbids — so the tests using
// it pin Workers: 1 (the serial path, where call order is defined). The
// parallel-path equivalents with a stateless transformer live in
// parallel_test.go.
type failingTransformer struct {
	inner gd.Transformer
	n     int
	count int
}

func (f *failingTransformer) Transform(raw string, ctx *gd.Context) (data.Row, error) {
	f.count++
	if f.count%f.n == 0 {
		return data.Row{}, fmt.Errorf("injected parse failure at record %d", f.count)
	}
	return f.inner.Transform(raw, ctx)
}

func TestEagerTransformSurfacesParseErrors(t *testing.T) {
	ds := smallDataset(t, 100)
	st := buildStore(t, ds, 4<<10)
	plan := gd.NewBGD(testParams(ds))
	plan.Transformer = &failingTransformer{inner: gd.FormatTransformer{Format: ds.Format}, n: 50}
	sim := cluster.New(noJitterCfg())
	_, err := Run(sim, st, &plan, Options{Seed: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "injected parse failure") {
		t.Fatalf("err = %v, want injected failure surfaced", err)
	}
}

func TestLazyTransformSurfacesParseErrors(t *testing.T) {
	ds := smallDataset(t, 200)
	st := buildStore(t, ds, 2<<10)
	p := testParams(ds)
	plan := gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition)
	plan.Transformer = &failingTransformer{inner: gd.FormatTransformer{Format: ds.Format}, n: 10}
	sim := cluster.New(noJitterCfg())
	_, err := Run(sim, st, &plan, Options{Seed: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "injected parse failure") {
		t.Fatalf("err = %v, want injected failure surfaced", err)
	}
}

// explodingUpdater drives the weights to infinity.
type explodingUpdater struct{}

func (explodingUpdater) Update(acc linalg.Vector, ctx *gd.Context) (linalg.Vector, error) {
	w := ctx.Weights.Clone()
	for i := range w {
		w[i] = math.Inf(1)
	}
	ctx.Weights = w
	return w, nil
}

func TestDivergenceIsDetectedNotMasked(t *testing.T) {
	ds := smallDataset(t, 50)
	st := buildStore(t, ds, 4<<10)
	plan := gd.NewBGD(testParams(ds))
	plan.Updater = explodingUpdater{}
	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Fatal("infinite weights not flagged as divergence")
	}
	if res.Converged {
		t.Fatal("diverged run reported as converged")
	}
	if res.Iterations != 1 {
		t.Fatalf("diverged run kept iterating: %d", res.Iterations)
	}
}

// erroringUpdater fails mid-run.
type erroringUpdater struct{ after int }

func (e *erroringUpdater) Update(acc linalg.Vector, ctx *gd.Context) (linalg.Vector, error) {
	if ctx.Iter > e.after {
		return nil, errors.New("injected update failure")
	}
	// Keep the loop alive until the failure point.
	w := ctx.Weights.Clone()
	w[0] += 1
	ctx.Weights = w
	return w, nil
}

func TestUpdateErrorsPropagate(t *testing.T) {
	ds := smallDataset(t, 50)
	st := buildStore(t, ds, 4<<10)
	plan := gd.NewBGD(testParams(ds))
	plan.Updater = &erroringUpdater{after: 3}
	sim := cluster.New(noJitterCfg())
	_, err := Run(sim, st, &plan, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected update failure") {
		t.Fatalf("err = %v, want injected update failure", err)
	}
}

// staleStager returns an error immediately.
type staleStager struct{}

func (staleStager) Stage(_ []data.Row, _ *gd.Context) error {
	return errors.New("injected stage failure")
}

func TestStageErrorsPropagate(t *testing.T) {
	ds := smallDataset(t, 50)
	st := buildStore(t, ds, 4<<10)
	plan := gd.NewBGD(testParams(ds))
	plan.Stager = staleStager{}
	sim := cluster.New(noJitterCfg())
	_, err := Run(sim, st, &plan, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "injected stage failure") {
		t.Fatalf("err = %v, want injected stage failure", err)
	}
}

// TestBudgetZeroMeansUnbounded: a zero time budget must not stop the run.
func TestBudgetZeroMeansUnbounded(t *testing.T) {
	ds := smallDataset(t, 50)
	st := buildStore(t, ds, 4<<10)
	p := testParams(ds)
	p.MaxIter = 7
	p.Tolerance = 1e-12
	plan := gd.NewBGD(p)
	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budgeted || res.Iterations != 7 {
		t.Fatalf("zero budget truncated the run: %+v", res)
	}
}
