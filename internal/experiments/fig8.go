package experiments

import (
	"ml4all/internal/cluster"
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
		sw, err := cfg.sweep(name)
		if err != nil {
			return nil, err
		}
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		p := sweepParams(ds)

		// Best and worst of the exhaustively run plan space.
		var minT, maxT cluster.Seconds
		var bestPlan string
		for i, plan := range planner.Space(p) {
			t := sw.runs[plan.Name()].Time
			if i == 0 || t < minT {
				minT, bestPlan = t, plan.Name()
			}
			if i == 0 || t > maxT {
				maxT = t
			}
		}

		// Optimizer + chosen plan on one clock.
		specEnd, total, planName := sw.specEnd, sw.total, sw.dec.Best.Plan.Name()

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
