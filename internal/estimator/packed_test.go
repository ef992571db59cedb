package estimator_test

import (
	"math"
	"reflect"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
	"ml4all/internal/step"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// speculateGathered is Speculate as it ran before the sample was packed: the
// same steps over Dataset.Sample's gathered view of the parent arena, whose
// rows the engine can only reach one at a time.
func speculateGathered(t *testing.T, plan gd.Plan, store *storage.Store, cfg estimator.Config) estimator.Estimate {
	t.Helper()
	est := estimator.Estimate{Algo: plan.Algorithm, Exact: -1}
	layout := store.Layout
	layout.PartitionBytes = 1 << 62
	sampleStore, err := storage.Build(store.Dataset.Sample(cfg.SampleSize, cfg.Seed), layout)
	if err != nil {
		t.Fatal(err)
	}
	plan.Tolerance = cfg.SpecTolerance
	plan.MaxIter = 1 << 20
	plan.Mode = gd.CentralizedMode
	simCfg := cluster.SpeculationLocal()
	simCfg.Seed = cfg.Seed
	res, err := engine.Run(cluster.New(simCfg), sampleStore, &plan, engine.Options{TimeBudget: cfg.TimeBudget, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	est.SpecTime = res.Time
	est.Weights, est.Diverged = res.Weights, res.Diverged
	est.Sequence = estimator.MonotoneSequence(res.Deltas)
	if len(est.Sequence) == 0 {
		est.A = math.Inf(1)
		return est
	}
	if res.Converged {
		est.Exact, est.FinalDelta = res.Iterations, res.FinalDelta
	}
	if est.A, err = estimator.FitInverse(est.Sequence); err != nil {
		t.Fatal(err)
	}
	return est
}

func sameEstimate(a, b estimator.Estimate) bool {
	return a.Algo == b.Algo && math.Float64bits(a.A) == math.Float64bits(b.A) && a.Exact == b.Exact &&
		a.FinalDelta == b.FinalDelta && a.SpecTime == b.SpecTime && reflect.DeepEqual(a.Sequence, b.Sequence)
}

// sameRun compares what the speculation run ended with: whether it diverged,
// and its final weights bit for bit.
func sameRun(a, b estimator.Estimate) bool {
	if a.Diverged != b.Diverged || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i, w := range a.Weights {
		if math.Float64bits(w) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// TestSpeculatePackedSampleBitwise: packing the speculation sample into its
// own arena changes which kernels its passes take (contiguous blocks instead
// of gathered rows) and nothing else — every plan of the space, eager and
// lazy, speculates to the same estimate and the same final weights on both,
// so the optimizer decides the same. A least-squares plan with an exploding
// step diverges on both.
func TestSpeculatePackedSampleBitwise(t *testing.T) {
	cfg := estimator.Config{SampleSize: 1000, SpecTolerance: 0.05, TimeBudget: 10, Seed: 3, Workers: 1}
	for _, task := range []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression} {
		for _, shape := range []synth.Spec{
			{Name: "dense", N: 3000, D: 20, Density: 1},
			{Name: "sparse", N: 3000, D: 300, Density: 0.05},
		} {
			shape.Task, shape.Noise, shape.Margin, shape.Seed = task, 0.1, 1, 9
			ds, err := synth.Generate(shape)
			if err != nil {
				t.Fatal(err)
			}
			store, err := storage.Build(ds, storage.DefaultLayout())
			if err != nil {
				t.Fatal(err)
			}
			p := gd.Params{Task: task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 500}
			want := map[gd.Algo]estimator.Estimate{} // Choose speculates each algorithm's first plan
			var specTime cluster.Seconds
			for _, plan := range planner.Space(p) {
				got, err := estimator.Speculate(plan, store, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := speculateGathered(t, plan, store, cfg)
				if !sameEstimate(got, ref) {
					t.Fatalf("%v %s %s: packed %+v, gathered %+v", task, shape.Name, plan.Name(), got, ref)
				}
				if !sameRun(got, ref) {
					t.Fatalf("%v %s %s: packed run diverged=%v, gathered diverged=%v, or their weights differ", task, shape.Name, plan.Name(), got.Diverged, ref.Diverged)
				}
				if len(ref.Sequence) == 0 {
					t.Fatalf("%v %s %s: speculation recorded no progress", task, shape.Name, plan.Name())
				}
				if _, ok := want[plan.Algorithm]; !ok {
					want[plan.Algorithm] = ref
					specTime += ref.SpecTime
				}
			}
			dec, err := planner.Choose(cluster.New(cluster.Default()), store, p, planner.Options{Estimator: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if len(dec.Estimates) != len(want) || dec.SpecTime != specTime {
				t.Fatalf("%v %s: Choose speculated %d algorithms in %v, gathered reference %d in %v", task, shape.Name, len(dec.Estimates), dec.SpecTime, len(want), specTime)
			}
			for algo, ref := range want {
				if !sameEstimate(dec.Estimates[algo], ref) {
					t.Fatalf("%v %s %v: Choose used %+v, gathered %+v", task, shape.Name, algo, dec.Estimates[algo], ref)
				}
			}
			if task == data.TaskLinearRegression {
				exploding := planner.Space(p)[0]
				exploding.Step = step.Constant{Value: 1e6}
				got, err := estimator.Speculate(exploding, store, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref := speculateGathered(t, exploding, store, cfg); !got.Diverged || !sameEstimate(got, ref) || !sameRun(got, ref) {
					t.Fatalf("%s exploding step: packed diverged=%v %+v, gathered diverged=%v %+v", shape.Name, got.Diverged, got, ref.Diverged, ref)
				}
			}
		}
	}
}
