package experiments

import (
	"math"
	"reflect"
	"testing"

	"ml4all/internal/engine"
	"ml4all/internal/planner"
)

// TestSweepMatchesDirectRuns pins what makes the figures views and not
// re-measurements: every memoized result is the bits an engine.Run on a fresh
// simulator and a freshly built store returns, the decision and both clock
// points are what a fresh planner.Choose followed by the chosen plan gives,
// and a second call hands back the memo.
func TestSweepMatchesDirectRuns(t *testing.T) {
	cfg := Config{Scale: 2048, Seed: 1}.withDefaults()
	for _, name := range []string{"adult", "rcv1"} { // dense and sparse
		sw, err := cfg.sweep(name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := cfg.sweep(name); again != sw {
			t.Fatalf("%s: second call recomputed the sweep", name)
		}
		ds, err := cfg.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		p := sweepParams(ds)

		space := planner.Space(p)
		if len(sw.runs) != len(space) {
			t.Fatalf("%s: %d memoized runs, want %d", name, len(sw.runs), len(space))
		}
		for _, plan := range space {
			st, err := cfg.store(ds)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(0))
			if err != nil {
				t.Fatal(err)
			}
			got := sw.runs[plan.Name()]
			if got == nil {
				t.Fatalf("%s/%s: not in the sweep", name, plan.Name())
			}
			if got.Time != want.Time || got.Iterations != want.Iterations ||
				math.Float64bits(got.FinalDelta) != math.Float64bits(want.FinalDelta) || got.Acct != want.Acct {
				t.Errorf("%s/%s: memo (%v, %d iters, delta %g, %+v) != direct (%v, %d iters, delta %g, %+v)", name, plan.Name(),
					got.Time, got.Iterations, got.FinalDelta, got.Acct, want.Time, want.Iterations, want.FinalDelta, want.Acct)
			}
			if len(got.Weights) != len(want.Weights) {
				t.Fatalf("%s/%s: %d weights, want %d", name, plan.Name(), len(got.Weights), len(want.Weights))
			}
			for i := range want.Weights {
				if math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
					t.Fatalf("%s/%s: weight %d differs: %g vs %g", name, plan.Name(), i, got.Weights[i], want.Weights[i])
				}
			}
		}

		st, err := cfg.store(ds)
		if err != nil {
			t.Fatal(err)
		}
		sim := cfg.sim()
		dec, err := planner.Choose(sim, st, p, planner.Options{Estimator: cfg.estimatorFor()})
		if err != nil {
			t.Fatal(err)
		}
		if sw.specEnd != sim.Now() || sw.dec.SpecTime != dec.SpecTime || !reflect.DeepEqual(sw.dec.Estimates, dec.Estimates) {
			t.Errorf("%s: speculation differs: clock %v vs %v, spec %v vs %v", name, sw.specEnd, sim.Now(), sw.dec.SpecTime, dec.SpecTime)
		}
		for i, want := range dec.Ranked {
			got := sw.dec.Ranked[i]
			if got.Plan.Name() != want.Plan.Name() || got.Iterations != want.Iterations || got.Cost != want.Cost || got.Satisfies != want.Satisfies {
				t.Errorf("%s: rank %d is %s (T=%d, %v), fresh Choose says %s (T=%d, %v)", name, i,
					got.Plan.Name(), got.Iterations, got.Cost, want.Plan.Name(), want.Iterations, want.Cost)
			}
		}
		chosen := dec.Best.Plan
		if _, err := engine.Run(sim, st, &chosen, cfg.engineOpts(0)); err != nil {
			t.Fatal(err)
		}
		if sw.total != sim.Now() {
			t.Errorf("%s: chosen-plan total %v, want %v", name, sw.total, sim.Now())
		}
	}
}
