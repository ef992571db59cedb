package experiments

import (
	"fmt"
	"math"

	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
)

// Fig7a reproduces the cost-per-iteration estimation experiment
// (Figure 7a): fix the iteration count at 1000, let the optimizer pick the
// plan (the paper observes it picks SGD everywhere), and compare the cost
// model's time estimate with the actual simulated run. The paper reports
// estimates within 17% of actual.
func Fig7a(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig7a",
		Title:  "Run of 1000 iterations: real vs estimated time (s)",
		Header: []string{"dataset", "plan", "real", "estimated", "rel.err"},
	}

	datasets := []string{"adult", "covtype", "yearpred", "rcv1"}
	if cfg.Quick {
		datasets = []string{"adult", "covtype"}
	}
	var worst float64
	for _, name := range datasets {
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		p := ParamsFor(ds, 1e-12, 1000) // tolerance unreachable: fixed-length run

		best := planner.CostAll(st, ClusterFor(cfg.Scale), p, 1000)[0]
		plan := best.Plan
		plan.Looper = gd.FixedIterLooper{}

		res, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(0))
		if err != nil {
			return nil, err
		}
		rel := math.Abs(float64(best.Cost-res.Time)) / float64(res.Time)
		if rel > worst {
			worst = rel
		}
		r.Add(name, plan.Name(), res.Time, best.Cost, fmt.Sprintf("%.0f%%", rel*100))
	}
	r.Note("worst relative error %.0f%% (paper: 17%%)", worst*100)
	return r, nil
}

// Fig7b reproduces the total-cost estimation experiment (Figure 7b): run the
// optimizer (speculation included), execute its chosen plan to convergence,
// and compare estimated vs real training time. Tolerances follow the paper:
// 0.001 for adult and covtype, 0.01 for rcv1, 0.1 for yearpred.
func Fig7b(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig7b",
		Title:  "Run to convergence: real vs estimated time (s)",
		Header: []string{"dataset", "tolerance", "chosen plan", "est.iters", "real", "estimated"},
	}

	rows := []struct {
		name    string
		tol     float64
		maxIter int
	}{
		// adult/covtype run with a raised iteration cap: on the synthetic
		// stand-ins tolerance 0.001 needs a few thousand iterations (the
		// real datasets needed a few hundred), and the point of the figure
		// is estimating runs that do converge.
		{"adult", 0.001, 6000}, {"covtype", 0.001, 6000}, {"rcv1", 0.01, 1000}, {"yearpred", 0.1, 1000},
	}
	if cfg.Quick {
		rows = rows[:2]
	}
	for _, row := range rows {
		ds, err := cfg.Dataset(row.name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		p := ParamsFor(ds, row.tol, row.maxIter)
		sim := cfg.sim()
		dec, err := planner.Choose(sim, st, p, planner.Options{Estimator: cfg.estimatorFor()})
		if err != nil {
			return nil, err
		}
		plan := dec.Best.Plan
		res, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(0))
		if err != nil {
			return nil, err
		}
		r.Add(row.name, fmt.Sprintf("%g", row.tol), plan.Name(),
			dec.Best.Iterations, res.Time, dec.Best.Cost)
	}
	return r, nil
}
