package experiments

import (
	"ml4all/internal/cluster"
	"ml4all/internal/engine"
	"ml4all/internal/planner"
)

// Fig8 reproduces the effectiveness experiment (Figure 8): for each dataset,
// exhaustively run all eleven GD plans to convergence, then run the
// optimizer (its speculation overhead charged on the same clock) followed by
// its chosen plan. The paper's claims: the chosen plan is (near-)fastest,
// and the speculation overhead is a few seconds — negligible next to
// training.
func Fig8(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig8",
		Title:  "Optimizer effectiveness: best/worst plan vs chosen (times in s)",
		Header: []string{"dataset", "best plan", "min", "max", "chosen plan", "chosen+spec", "spec"},
	}

	datasets := []string{"adult", "covtype", "yearpred", "rcv1", "higgs", "svm1", "svm2", "svm3"}
	if cfg.Quick {
		datasets = []string{"adult", "covtype", "rcv1", "svm1"}
	}

	nearBest := 0
	for _, name := range datasets {
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		p := ParamsFor(ds, 0.001, 1000)

		// Exhaustive execution of the whole plan space.
		var minT, maxT cluster.Seconds
		var bestPlan string
		for i, plan := range planner.Space(p) {
			res, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(0))
			if err != nil {
				return nil, err
			}
			if i == 0 || res.Time < minT {
				minT, bestPlan = res.Time, plan.Name()
			}
			if i == 0 || res.Time > maxT {
				maxT = res.Time
			}
		}

		// Optimizer + chosen plan on one clock. With cfg.Adaptive the
		// chosen plan additionally re-optimizes mid-flight.
		sim := cfg.sim()
		var specEnd cluster.Seconds
		var planName string
		if cfg.Adaptive {
			ar, err := planner.RunAdaptive(sim, st, p, planner.Options{Estimator: cfg.estimatorFor()},
				cfg.engineOpts(0), planner.AdaptiveConfig{})
			if err != nil {
				return nil, err
			}
			// Result.Time covers training only, so this recovers the same
			// post-optimization clock point the static branch records.
			specEnd = sim.Now() - ar.Result.Time
			planName = ar.Result.PlanName
		} else {
			dec, err := planner.Choose(sim, st, p, planner.Options{Estimator: cfg.estimatorFor()})
			if err != nil {
				return nil, err
			}
			specEnd = sim.Now()
			plan := dec.Best.Plan
			planName = plan.Name()
			if _, err := engine.Run(sim, st, &plan, cfg.engineOpts(0)); err != nil {
				return nil, err
			}
		}
		total := sim.Now()

		// "Near-best": within 2x of the exhaustive minimum including the
		// optimization overhead.
		if total <= 2*minT || planName == bestPlan {
			nearBest++
		}
		r.Add(name, bestPlan, minT, maxT, planName, total, specEnd)
	}
	r.Note("chosen plan near-best on %d/%d datasets", nearBest, len(datasets))
	return r, nil
}
