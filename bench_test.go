package ml4all

// One benchmark per table and figure of the paper's evaluation (and per
// DESIGN.md extra ablation), each delegating to the corresponding experiment
// runner. Benchmarks use the Quick sweeps and the default 1/256 harness
// scale so `go test -bench=. -benchmem` finishes in minutes; run
// `ml4all-bench -exp <id> -scale 64` for the full, paper-magnitude versions.
//
// Reported custom metrics: sim_s/op is the simulated cluster time the
// experiment's runs consumed (wall time measures the simulator; sim time is
// what the paper's figures plot).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/experiments"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig1Motivation(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig6Iterations(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7aCostPerIteration(b *testing.B) { benchExperiment(b, "fig7a") }
func BenchmarkFig7bTotalCost(b *testing.B)        { benchExperiment(b, "fig7b") }
func BenchmarkFig8Effectiveness(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9Systems(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10Scalability(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11Abstraction(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12Accuracy(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13SamplingMGD(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14Transform(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15CurveFitSteps(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16CurveFitDatasets(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17SamplingSGD(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18TransformRandom(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkTable2Datasets(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkTable4ChosenPlans(b *testing.B)     { benchExperiment(b, "table4") }

func BenchmarkAblationSpeculationBudget(b *testing.B) { benchExperiment(b, "ablation-speculation") }
func BenchmarkAblationPlacement(b *testing.B)         { benchExperiment(b, "ablation-placement") }
func BenchmarkAblationTuner(b *testing.B)             { benchExperiment(b, "ablation-tuner") }

// --- Compute hot path: serial vs parallel ---
//
// These benchmarks measure the real (wall-clock) cost of the per-iteration
// Compute phase on the partitioned executor at different worker counts, over
// a dataset large enough (100k units) for the pool to matter. Results are
// bit-identical across the sweep — see DESIGN.md — so the only thing moving
// is the wall time; the speedup from workers=1 to workers=N is the number
// the parallel-executor refactor exists for. Run with
// `go test -bench=ComputePhase -benchtime=3x` for a quick read.

var (
	benchDatasets sync.Map // kind -> *data.Dataset
	benchWorkers  = []int{1, 2, 4, 8}
)

func computeBenchDataset(b *testing.B, kind string) *data.Dataset {
	b.Helper()
	if ds, ok := benchDatasets.Load(kind); ok {
		return ds.(*data.Dataset)
	}
	spec := synth.Spec{
		Name: "bench-" + kind, Task: data.TaskLogisticRegression,
		N: 100_000, Noise: 0.1, Margin: 1, Seed: 42,
	}
	switch kind {
	case "dense":
		spec.D, spec.Density = 50, 1
	case "sparse":
		spec.D, spec.Density = 1000, 0.05
	default:
		b.Fatalf("unknown bench dataset kind %q", kind)
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchDatasets.Store(kind, ds)
	return ds
}

func benchComputePhase(b *testing.B, kind string, workers int, fast bool) {
	ds := computeBenchDataset(b, kind)
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		b.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: 3, Lambda: 0.05}
	plan := gd.NewBGD(p)
	plan.Looper = gd.FixedIterLooper{} // exactly MaxIter full Compute passes
	cfg := cluster.Default()
	cfg.JitterFrac = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := cluster.New(cfg)
		res, err := engine.Run(sim, st, &plan, engine.Options{Seed: 1, Workers: workers, FastMath: fast})
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations != p.MaxIter {
			b.Fatalf("expected %d iterations, got %d", p.MaxIter, res.Iterations)
		}
	}
	b.ReportMetric(float64(p.MaxIter*ds.N()*b.N)/b.Elapsed().Seconds(), "units/s")
}

// --- Trainer lifecycle ---

// BenchmarkTrainerStep measures the per-Step cost of the resumable trainer
// on a sampled plan (MGD eager+shuffle, batch 1000): one Sample + Compute +
// Update + Converge round trip per op, steady state. This is the loop the
// adaptive controller drives, so Step overhead is pure controller tax.
func BenchmarkTrainerStep(b *testing.B) {
	ds := computeBenchDataset(b, "dense")
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		b.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: 1 << 30, Lambda: 0.05}
	plan := gd.NewMGD(p, gd.Eager, gd.ShuffledPartition)
	plan.Looper = gd.FixedIterLooper{} // never stops inside the timed loop
	cfg := cluster.Default()
	cfg.JitterFrac = 0
	tr, err := engine.NewTrainer(cluster.New(cfg), st, &plan, engine.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	stepTrainer(b, tr, 5) // past first-touch growth of every reused buffer
	b.ResetTimer()
	stepTrainer(b, tr, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

func stepTrainer(b *testing.B, tr *engine.Trainer, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainerStepSGD measures the step the driver-side passes dominate:
// SGD (eager + shuffled-partition, λ = 1e-4) on 8 000 narrow rows, steady
// state. One row per step makes the kernel a few dozen flops, so what is
// timed is sampling, the simulator's charges and the walk(s) over the model
// — 28 wide dense, 1 000 wide with 10 non-zeros a row sparse.
func BenchmarkTrainerStepSGD(b *testing.B) {
	for _, c := range []struct {
		name    string
		d       int
		density float64
	}{{"dense28", 28, 1}, {"sparse1000x10", 1000, 0.01}} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := synth.Generate(synth.Spec{
				Name: "bench-sgd-" + c.name, Task: data.TaskLogisticRegression,
				N: 8000, D: c.d, Density: c.density, Noise: 0.1, Margin: 1, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			st, err := storage.Build(ds, storage.DefaultLayout())
			if err != nil {
				b.Fatal(err)
			}
			p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: 1 << 30, Lambda: 1e-4}
			plan := gd.NewSGD(p, gd.Eager, gd.ShuffledPartition)
			plan.Looper = gd.FixedIterLooper{} // never stops inside the timed loop
			cfg := cluster.Default()
			cfg.JitterFrac = 0
			tr, err := engine.NewTrainer(cluster.New(cfg), st, &plan, engine.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			stepTrainer(b, tr, 1000) // past first-touch growth, and a queue refill or two
			b.ReportAllocs()
			b.ResetTimer()
			stepTrainer(b, tr, b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// BenchmarkTrainerCheckpoint measures a Checkpoint + Encode round trip taken
// mid-run — the cost of making a training run durable.
func BenchmarkTrainerCheckpoint(b *testing.B) {
	ds := computeBenchDataset(b, "dense")
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		b.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: 1 << 30, Lambda: 0.05}
	plan := gd.NewMGD(p, gd.Eager, gd.ShuffledPartition)
	plan.Looper = gd.FixedIterLooper{}
	cfg := cluster.Default()
	cfg.JitterFrac = 0
	tr, err := engine.NewTrainer(cluster.New(cfg), st, &plan, engine.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	stepTrainer(b, tr, 10)
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		cp, err := tr.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		enc, err := cp.Encode()
		if err != nil {
			b.Fatal(err)
		}
		bytes = len(enc)
	}
	b.ReportMetric(float64(bytes), "state_bytes")
}

// --- Cold start: text to arena, and speculation ---

// coldStartSpecs are the two shapes a cold start pays for: a dense 100-wide
// CSV and a sparse 2 000-wide LIBSVM file at 2 % density (the repo
// benchmark's cold-auto pair, at a tenth of its rows).
var coldStartSpecs = []struct {
	name string
	spec synth.Spec
}{
	{"csv100", synth.Spec{Name: "bench-csv100", Task: data.TaskLogisticRegression, N: 4000, D: 100, Density: 1, Noise: 0.1, Margin: 1, Seed: 42}},
	{"libsvm2000x2pct", synth.Spec{Name: "bench-libsvm", Task: data.TaskLogisticRegression, N: 4000, D: 2000, Density: 0.02, Noise: 0.1, Margin: 1, Seed: 43}},
}

// BenchmarkReadMatrix measures data.ReadMatrix over a file's text held in
// memory: MB/s of text turned into an arena, and allocations per load —
// which are per text block and per arena column, not per row.
func BenchmarkReadMatrix(b *testing.B) {
	for _, c := range coldStartSpecs {
		b.Run(c.name, func(b *testing.B) {
			ds, err := synth.Generate(c.spec)
			if err != nil {
				b.Fatal(err)
			}
			text := strings.Join(ds.Raw, "\n") + "\n"
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := data.ReadMatrix(strings.NewReader(text), ds.Format)
				if err != nil {
					b.Fatal(err)
				}
				if m.NumRows() != ds.N() {
					b.Fatalf("read %d rows, want %d", m.NumRows(), ds.N())
				}
			}
		})
	}
}

// BenchmarkSpeculate measures one estimator.Speculate call for BGD — full
// passes over the 1 000-row speculation sample until the speculation
// tolerance — on a dense and a sparse dataset.
func BenchmarkSpeculate(b *testing.B) {
	for i, name := range []string{"dense", "sparse"} {
		b.Run(name, func(b *testing.B) {
			ds, err := synth.Generate(coldStartSpecs[i].spec)
			if err != nil {
				b.Fatal(err)
			}
			st, err := storage.Build(ds, storage.DefaultLayout())
			if err != nil {
				b.Fatal(err)
			}
			plan := gd.NewBGD(gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-4, MaxIter: 1000})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := estimator.Speculate(plan, st, estimator.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if len(est.Sequence) == 0 {
					b.Fatal("speculation recorded no progress")
				}
			}
		})
	}
}

// BenchmarkAdaptiveVsStatic is the end-to-end comparison under the skewed
// speculation scenario (see internal/experiments/adaptive.go): "static" runs
// the optimizer's chosen plan uninterrupted, "adaptive" runs the same choice
// under the mid-flight re-optimization controller. The sim_s metric is the
// simulated training time — the quantity the adaptive controller exists to
// cut; at this benchmark's quick scale the statically-chosen plan misses the
// tolerance entirely while the adaptive run converges.
func BenchmarkAdaptiveVsStatic(b *testing.B) {
	spec := synth.Spec{
		Name: "bench-adaptive", Task: data.TaskLogisticRegression,
		N: 19531, D: 40, Density: 0.6, Noise: 0.6, Margin: 0.5, Seed: 1,
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		b.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Lambda: 0.01, Tolerance: 2e-4, MaxIter: 4000}
	est := estimator.Config{SampleSize: 1000, SpecTolerance: 0.1, TimeBudget: 3, Seed: 1}

	b.Run("static", func(b *testing.B) {
		var sim cluster.Seconds
		for i := 0; i < b.N; i++ {
			cl := cluster.New(cluster.Default())
			dec, err := planner.Choose(cl, st, p, planner.Options{Estimator: est})
			if err != nil {
				b.Fatal(err)
			}
			plan := dec.Best.Plan
			if _, err := engine.Run(cl, st, &plan, engine.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
			sim = cl.Now()
		}
		b.ReportMetric(float64(sim), "sim_s")
	})
	b.Run("adaptive", func(b *testing.B) {
		var sim cluster.Seconds
		for i := 0; i < b.N; i++ {
			cl := cluster.New(cluster.Default())
			ar, err := planner.RunAdaptive(cl, st, p, planner.Options{Estimator: est},
				engine.Options{Seed: 1}, planner.AdaptiveConfig{Every: 50})
			if err != nil {
				b.Fatal(err)
			}
			if !ar.Result.Converged {
				b.Fatal("adaptive run missed tolerance")
			}
			sim = cl.Now()
		}
		b.ReportMetric(float64(sim), "sim_s")
	})
}

func BenchmarkAdaptiveReoptimization(b *testing.B) { benchExperiment(b, "adaptive") }

func BenchmarkComputePhaseDense(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchComputePhase(b, "dense", w, false) })
	}
}

func BenchmarkComputePhaseSparse(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchComputePhase(b, "sparse", w, false) })
	}
}

// Fast-math tier counterparts of the ComputePhase benchmarks: the same
// training passes through the multi-accumulator kernels. The dense ratio of
// these against the exact benchmarks above is the measurement behind
// cluster.FastMathFlopFrac (see internal/cluster/calibration.go); re-run both
// and update the constant's table if the ratio moved.
func BenchmarkComputePhaseDenseFast(b *testing.B) {
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchComputePhase(b, "dense", w, true) })
	}
}

func BenchmarkComputePhaseSparseFast(b *testing.B) {
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchComputePhase(b, "sparse", w, true) })
	}
}
