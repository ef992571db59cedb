package engine

import (
	"math"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/linalg"
	"ml4all/internal/step"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

func noJitterCfg() cluster.Config {
	c := cluster.Default()
	c.JitterFrac = 0
	return c
}

func smallDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Spec{
		Name: "test", Task: data.TaskLogisticRegression,
		N: n, D: 20, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func buildStore(t *testing.T, ds *data.Dataset, partBytes int64) *storage.Store {
	t.Helper()
	st, err := storage.Build(ds, storage.Layout{PartitionBytes: partBytes, PageBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testParams(ds *data.Dataset) gd.Params {
	return gd.Params{
		Task: ds.Task, Format: ds.Format,
		Tolerance: 1e-3, MaxIter: 50, Lambda: 0.05, BatchSize: 16,
	}
}

// TestBGDMatchesReferenceLoop is the core numeric correctness check: the
// engine's BGD must produce exactly the weights of a plain reference
// implementation of Equation 2 with mean gradients.
func TestBGDMatchesReferenceLoop(t *testing.T) {
	ds := smallDataset(t, 200)
	st := buildStore(t, ds, 4<<10)
	p := testParams(ds)
	plan := gd.NewBGD(p)

	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: straightforward batch gradient descent.
	g := gradients.Logistic{}
	reg := gradients.L2{Lambda: p.Lambda}
	w := linalg.NewVector(ds.NumFeatures)
	grad := linalg.NewVector(ds.NumFeatures)
	st2 := step.Default()
	var converged bool
	var iters int
	for i := 1; i <= p.MaxIter; i++ {
		iters = i
		gradients.MeanGradient(g, reg, w, ds.Rows(), grad)
		prev := w.Clone()
		w.AddScaled(-st2.Alpha(i), grad)
		if w.DistL1(prev) < p.Tolerance {
			converged = true
			break
		}
	}

	if !res.Weights.Equal(w, 1e-9) {
		t.Fatalf("engine weights diverge from reference:\n got %v\nwant %v", res.Weights[:5], w[:5])
	}
	if res.Iterations != iters || res.Converged != converged {
		t.Fatalf("iterations/converged = %d/%v, want %d/%v", res.Iterations, res.Converged, iters, converged)
	}
}

// TestBGDPlacementInvariance: the same plan must produce identical numerics
// whether executed centralized, distributed or auto (only time may differ).
func TestBGDPlacementInvariance(t *testing.T) {
	ds := smallDataset(t, 300)
	st := buildStore(t, ds, 2<<10) // several partitions
	p := testParams(ds)

	var ref linalg.Vector
	for _, mode := range []gd.ExecMode{gd.AutoMode, gd.CentralizedMode, gd.DistributedMode} {
		plan := gd.NewBGD(p)
		plan.Mode = mode
		sim := cluster.New(noJitterCfg())
		res, err := Run(sim, st, &plan, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if ref == nil {
			ref = res.Weights
			continue
		}
		if !res.Weights.Equal(ref, 1e-12) {
			t.Fatalf("mode %v changed numerics", mode)
		}
	}
}

// TestLazyEqualsEagerNumerics: transformation placement is a physical choice;
// with the same sampling seed the model must be identical.
func TestLazyEqualsEagerNumerics(t *testing.T) {
	ds := smallDataset(t, 300)
	st := buildStore(t, ds, 2<<10)
	p := testParams(ds)

	eager := gd.NewMGD(p, gd.Eager, gd.ShuffledPartition)
	lazy := gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition)

	simE := cluster.New(noJitterCfg())
	resE, err := Run(simE, st, &eager, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	simL := cluster.New(noJitterCfg())
	resL, err := Run(simL, st, &lazy, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !resE.Weights.Equal(resL.Weights, 1e-12) {
		t.Fatal("lazy transformation changed numerics")
	}
	if resE.Iterations != resL.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", resE.Iterations, resL.Iterations)
	}
	// Eager pays the full parse upfront; the per-run transform charge must
	// differ between the two (cost asymmetry is the point of Section 6).
	if resE.Time == resL.Time {
		t.Fatal("eager and lazy charged identical time (suspicious)")
	}
}

func TestSamplingStrategiesAllConverge(t *testing.T) {
	ds := smallDataset(t, 400)
	st := buildStore(t, ds, 2<<10)
	p := testParams(ds)
	for _, sk := range []gd.SamplingKind{gd.Bernoulli, gd.RandomPartition, gd.ShuffledPartition} {
		plan := gd.NewMGD(p, gd.Eager, sk)
		sim := cluster.New(noJitterCfg())
		res, err := Run(sim, st, &plan, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		if res.Diverged {
			t.Fatalf("%s diverged", plan.Name())
		}
		if res.Iterations == 0 || len(res.Deltas) != res.Iterations {
			t.Fatalf("%s: iterations=%d deltas=%d", plan.Name(), res.Iterations, len(res.Deltas))
		}
	}
}

func TestTimeBudgetStopsRun(t *testing.T) {
	ds := smallDataset(t, 500)
	st := buildStore(t, ds, 2<<10)
	p := testParams(ds)
	p.MaxIter = 100000
	p.Tolerance = 1e-12 // unreachable
	plan := gd.NewBGD(p)
	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{TimeBudget: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Budgeted {
		t.Fatal("budget did not stop the run")
	}
	if res.Time < 5 {
		t.Fatalf("stopped before the budget: %g", res.Time)
	}
}

func TestRunValidates(t *testing.T) {
	ds := smallDataset(t, 10)
	st := buildStore(t, ds, 4<<10)
	bad := gd.NewBGD(testParams(ds))
	bad.Computer = nil
	sim := cluster.New(noJitterCfg())
	if _, err := Run(sim, st, &bad, Options{}); err == nil {
		t.Fatal("invalid plan accepted")
	}

	empty, err := storage.Build(data.FromMatrix("e", data.TaskSVM, data.NewMatrixBuilder(0, 0).Build()), storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	good := gd.NewBGD(testParams(ds))
	if _, err := Run(sim, empty, &good, Options{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	ds := smallDataset(t, 200)
	st := buildStore(t, ds, 2<<10)
	p := testParams(ds)
	plan := gd.NewSGD(p, gd.Eager, gd.RandomPartition)

	run := func() *Result {
		sim := cluster.New(cluster.Default()) // jitter on: still deterministic
		res, err := Run(sim, st, &plan, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Weights.Equal(b.Weights, 0) || a.Time != b.Time || a.Iterations != b.Iterations {
		t.Fatal("identical seeds produced different runs")
	}
}

func TestSVRGRunsAndConverges(t *testing.T) {
	ds := smallDataset(t, 300)
	st := buildStore(t, ds, 4<<10)
	p := testParams(ds)
	p.MaxIter = 60
	plan := gd.NewSVRG(p, 10)
	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("SVRG diverged")
	}
	if !res.Weights.IsFinite() {
		t.Fatal("SVRG weights non-finite")
	}
	// The model must beat the zero vector on the training objective.
	g := gradients.Logistic{}
	reg := gradients.L2{Lambda: p.Lambda}
	zero := linalg.NewVector(ds.NumFeatures)
	if gradients.Objective(g, reg, res.Weights, ds.Rows()) >= gradients.Objective(g, reg, zero, ds.Rows()) {
		t.Fatal("SVRG did not improve the objective")
	}
}

// TestSVRGUpdateFrequencyOneIsBGD: with m = 1 every SVRG iteration is a
// snapshot, so the engine must sweep the whole dataset each time, and the
// run is BGD's bit for bit: same weights and deltas, n units read per
// iteration.
func TestSVRGUpdateFrequencyOneIsBGD(t *testing.T) {
	ds := smallDataset(t, 400)
	st := buildStore(t, ds, 4<<10)
	p := testParams(ds)
	p.MaxIter = 10
	run := func(plan gd.Plan) (*Result, []IterEvent) {
		obs := &recordingObserver{}
		res, err := Run(cluster.New(noJitterCfg()), st, &plan, Options{Seed: 4, Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		return res, obs.events
	}
	bgd, bgdEvents := run(gd.NewBGD(p))
	svrg, svrgEvents := run(gd.NewSVRG(p, 1))
	sameNumerics(t, "SVRG m=1", bgd, svrg)
	n := int64(ds.N())
	for i, ev := range svrgEvents {
		if ev.Units != bgdEvents[i].Units {
			t.Fatalf("iteration %d: %d units read so far, BGD %d", i+1, ev.Units, bgdEvents[i].Units)
		}
		if i > 0 && ev.Units-svrgEvents[i-1].Units < n {
			t.Fatalf("iteration %d read %d units, want at least n = %d", i+1, ev.Units-svrgEvents[i-1].Units, n)
		}
	}
}

func TestLineSearchImprovesObjectiveMonotonically(t *testing.T) {
	ds := smallDataset(t, 200)
	st := buildStore(t, ds, 4<<10)
	p := testParams(ds)
	p.MaxIter = 40
	plan := gd.NewLineSearchBGD(p, 0.5)
	sim := cluster.New(noJitterCfg())
	tr, err := NewTrainer(sim, st, &plan, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := gradients.Logistic{}
	reg := gradients.L2{Lambda: p.Lambda}
	prev := math.Inf(1)
	for i := 0; !tr.Done(); i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		obj := gradients.Objective(g, reg, tr.Finish().Weights, ds.Rows())
		if obj > prev+1e-12 {
			t.Fatalf("objective increased at pass %d: %g -> %g", i, prev, obj)
		}
		prev = obj
	}
	zero := linalg.NewVector(ds.NumFeatures)
	if prev >= gradients.Objective(g, reg, zero, ds.Rows()) {
		t.Fatal("line search did not improve over zero weights")
	}
}

func TestCacheThrashingShowsInTime(t *testing.T) {
	// The same dataset trained on a cluster whose cache cannot hold it must
	// take longer per iteration (all-disk scans) than on one where it fits.
	ds := smallDataset(t, 2000)
	st := buildStore(t, ds, 2<<10)

	p := testParams(ds)
	p.MaxIter = 10
	p.Tolerance = 1e-12
	plan := gd.NewBGD(p)

	big := noJitterCfg()
	big.CacheBytes = 1 << 30
	simBig := cluster.New(big)
	resBig, err := Run(simBig, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	tiny := noJitterCfg()
	tiny.CacheBytes = 0
	simTiny := cluster.New(tiny)
	resTiny, err := Run(simTiny, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	if resTiny.Time <= resBig.Time {
		t.Fatalf("no-cache run (%.3fs) not slower than cached run (%.3fs)", resTiny.Time, resBig.Time)
	}
	if !resTiny.Weights.Equal(resBig.Weights, 0) {
		t.Fatal("cache capacity changed numerics")
	}
}

func TestStageSampleFeedsStager(t *testing.T) {
	ds := smallDataset(t, 100)
	st := buildStore(t, ds, 4<<10)
	p := testParams(ds)
	plan := gd.NewBGD(p)
	plan.Stager = gd.SampleMeanStager{Scale: 0.1}
	plan.StageSampleSize = 20
	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged with sample staging")
	}
}

func TestAccountingIsPopulated(t *testing.T) {
	ds := smallDataset(t, 300)
	st := buildStore(t, ds, 2<<10)
	p := testParams(ds)
	plan := gd.NewBGD(p)
	sim := cluster.New(noJitterCfg())
	res, err := Run(sim, st, &plan, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Acct
	if a.DiskPages == 0 || a.Tasks == 0 || a.UnitsSeen == 0 || a.CPUSeconds <= 0 {
		t.Fatalf("accounting empty: %+v", a)
	}
	if a.NetBytes == 0 {
		t.Fatal("distributed BGD moved no bytes (reduce missing?)")
	}
}
