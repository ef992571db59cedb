package ml4all_test

// The zero-tax rule (ROADMAP aim 4) as tier-1 tests: a steady-state training
// step with nobody watching, and a predict, allocate nothing. bench/ reports
// the same two counts per run (engine.step_allocs,
// serve.predict_allocs_per_op).

import (
	"context"
	"fmt"
	"testing"

	"ml4all"
	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/serve"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
}

func TestTrainerStepAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	ds, err := synth.Generate(synth.Spec{
		Name: "zerotax", Task: data.TaskLogisticRegression,
		N: 8000, D: 28, Density: 1, Noise: 0.1, Margin: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Build(ds, storage.Layout{PartitionBytes: 256 << 10, PageBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: 1 << 30, Lambda: 1e-4}
	for _, plan := range []gd.Plan{
		gd.NewBGD(p),
		gd.NewMGD(p, gd.Eager, gd.ShuffledPartition), // batch 1000
		gd.NewSGD(p, gd.Lazy, gd.ShuffledPartition),
	} {
		plan.Looper = gd.FixedIterLooper{} // never stops inside the measured loop
		tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, engine.Options{Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ { // past first-touch growth of every reused buffer
			step()
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("%s: %v allocs per Step, want 0", plan.Name(), allocs)
		}
	}
}

func TestPredictAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	const d = 128
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = float64(i%13)/13 - 0.5
	}
	mv := &serve.ModelVersion{Name: "zerotax", Version: 1, Model: &ml4all.Model{Name: "zerotax", Task: data.TaskSVM, Weights: w}}
	req := &serve.PredictRequest{Rows: make([]string, 8)}
	for i := range req.Rows {
		req.Rows[i] = fmt.Sprintf("%d:%g %d:%g %d:%g", i%d+1, 0.25+float64(i), (i+7)%d+1, -1.5, (i+29)%d+1, float64(i%5))
	}
	p := serve.NewPredictor(serve.AdmissionConfig{}, nil)
	predict := func() {
		resp := serve.AcquirePredictResponse()
		if err := p.Predict(context.Background(), mv, req, resp); err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	for i := 0; i < 16; i++ { // warm every pool class the path touches
		predict()
	}
	if allocs := testing.AllocsPerRun(200, predict); allocs != 0 {
		t.Errorf("%v allocs per Predict, want 0", allocs)
	}
}
