package planner

import (
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

func fixture(t *testing.T, name string, n int) (*storage.Store, gd.Params) {
	t.Helper()
	spec, err := synth.ByName(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		spec.N = n
	}
	ds := synth.MustGenerate(spec)
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.01, MaxIter: 500}
	return st, p
}

func TestSpaceIsElevenPlans(t *testing.T) {
	_, p := fixture(t, "adult", 500)
	plans := Space(p)
	if len(plans) != 11 {
		t.Fatalf("plan space = %d, want 11 (Figure 5)", len(plans))
	}
	seen := map[string]bool{}
	for _, pl := range plans {
		if err := pl.Validate(); err != nil {
			t.Errorf("%s invalid: %v", pl.Name(), err)
		}
		if seen[pl.Name()] {
			t.Errorf("duplicate plan %s", pl.Name())
		}
		seen[pl.Name()] = true
	}
	// Exactly one BGD plan; lazy+bernoulli absent.
	if !seen["BGD"] {
		t.Error("BGD plan missing")
	}
	for _, banned := range []string{"SGD-lazy-bernoulli", "MGD-lazy-bernoulli"} {
		if seen[banned] {
			t.Errorf("banned plan %s present", banned)
		}
	}
}

func TestCostAllRanksAscending(t *testing.T) {
	st, p := fixture(t, "covtype", 3000)
	choices := CostAll(st, cluster.Default(), p, 100)
	if len(choices) != 11 {
		t.Fatalf("costed %d plans, want 11", len(choices))
	}
	for i := 1; i < len(choices); i++ {
		if choices[i].Cost < choices[i-1].Cost {
			t.Fatalf("ranking not ascending at %d", i)
		}
	}
	for _, c := range choices {
		if c.Iterations != 100 {
			t.Fatalf("%s costed at %d iterations, want 100", c.Plan.Name(), c.Iterations)
		}
		if c.Cost <= 0 {
			t.Fatalf("%s has non-positive cost", c.Plan.Name())
		}
	}
}

func TestCostAllPicksStochasticPlanAt1000Iterations(t *testing.T) {
	st, p := fixture(t, "covtype", 3000)
	// With iterations fixed high, a stochastic plan must win (the paper's
	// Figure 7(a) observation: ML4all selected SGD for all datasets).
	if best := CostAll(st, cluster.Default(), p, 1000)[0]; best.Plan.Algorithm == gd.BGD {
		t.Fatal("BGD ranked first for 1000 fixed iterations")
	}
}

func TestChooseSpeculatesAndCharges(t *testing.T) {
	st, p := fixture(t, "covtype", 3000)
	sim := cluster.New(cluster.Default())
	dec, err := Choose(sim, st, p, Options{
		Estimator: estimator.Config{SampleSize: 300, TimeBudget: 3, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Estimates) != 3 {
		t.Fatalf("speculated %d algorithms, want 3 (BGD, SGD, MGD)", len(dec.Estimates))
	}
	if dec.SpecTime <= 0 {
		t.Fatal("no speculation time recorded")
	}
	if sim.Now() < dec.SpecTime {
		t.Fatalf("optimizer overhead not charged: clock %g < spec %g", sim.Now(), dec.SpecTime)
	}
	if len(dec.Ranked) != 11 {
		t.Fatalf("ranked %d plans", len(dec.Ranked))
	}
	if dec.Best.Cost != dec.Ranked[0].Cost {
		t.Fatal("best is not the cheapest ranked plan")
	}
}

// TestChoiceAvoidsWorstPlan is the optimizer's core promise ("like database
// optimizers, the main goal is to avoid the worst execution plans"): the
// chosen plan, actually executed, must land much closer to the best plan
// than to the worst.
func TestChoiceAvoidsWorstPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("executes several plans")
	}
	st, p := fixture(t, "covtype", 3000)
	p.MaxIter = 150
	sim := cluster.New(cluster.Default())
	dec, err := Choose(sim, st, p, Options{
		Estimator: estimator.Config{SampleSize: 300, TimeBudget: 3, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}

	times := map[string]cluster.Seconds{}
	for _, c := range dec.Ranked {
		plan := c.Plan
		s := cluster.New(cluster.Default())
		res, err := engine.Run(s, st, &plan, engine.Options{Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		times[plan.Name()] = res.Time
	}
	best, worst := times[dec.Ranked[0].Plan.Name()], times[dec.Ranked[0].Plan.Name()]
	for _, tt := range times {
		if tt < best {
			best = tt
		}
		if tt > worst {
			worst = tt
		}
	}
	chosen := times[dec.Best.Plan.Name()]
	if worst <= best {
		t.Skip("degenerate spread")
	}
	// Chosen within the cheapest third of the best..worst span.
	frac := float64(chosen-best) / float64(worst-best)
	if frac > 0.34 {
		t.Fatalf("chosen plan %s at %.2fs sits %.0f%% into [best %.2fs, worst %.2fs]",
			dec.Best.Plan.Name(), chosen, frac*100, best, worst)
	}
}

func TestIterationEstimatesCappedByMaxIter(t *testing.T) {
	st, p := fixture(t, "adult", 0)
	p.Tolerance = 1e-9 // extrapolates to astronomically many iterations
	p.MaxIter = 77
	sim := cluster.New(cluster.Default())
	dec, err := Choose(sim, st, p, Options{
		Estimator: estimator.Config{SampleSize: 200, TimeBudget: 2, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dec.Ranked {
		if c.Iterations > 77 {
			t.Fatalf("%s estimated %d iterations beyond MaxIter 77", c.Plan.Name(), c.Iterations)
		}
	}
}
