package experiments

import (
	"fmt"
	"math"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// Adaptive reproduces the mis-estimation scenario mid-flight re-optimization
// exists for. Speculation runs on a 1000-point sample while MGD's batch size
// is also 1000 — on the sample the "stochastic" plans are effectively
// full-batch, so their fitted T(ε)=a/ε curves are far too optimistic, and
// the error grows as the requested tolerance tightens (the Figure 6
// effect). On the full, noisy dataset those plans stall near the sampling
// noise floor: the optimizer's chosen plan burns iterations without
// approaching εd. The adaptive controller re-fits the curve on the observed
// deltas, sees the mis-estimate, and switches to a full-batch plan —
// carrying the error level already reached, so the successor skips the head
// of its own curve. The headline: the adaptive run (including speculation
// and switch overhead) reaches εd in less simulated time than the best
// static plan, while the statically-chosen plan misses tolerance entirely.
func Adaptive(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "adaptive",
		Title:  "Mid-flight re-optimization under speculation mis-estimation (times in s)",
		Header: []string{"plan", "reached εd", "iters", "time"},
	}

	ds, p, err := adaptiveScenario(cfg)
	if err != nil {
		return nil, err
	}
	st, err := cfg.store(ds)
	if err != nil {
		return nil, err
	}

	// Exhaustive static baselines: every plan of the space, run to
	// completion on its own clock (no speculation charged — the statics
	// get a head start). Quick mode keeps the representative corners: the
	// strongest full-batch and sampled contenders plus a lazy plan.
	statics := planner.Space(p)
	if cfg.Quick {
		var subset []gd.Plan
		for _, plan := range statics {
			switch plan.Name() {
			case "BGD", "MGD-eager-shuffle", "SGD-eager-shuffle", "MGD-lazy-shuffle":
				subset = append(subset, plan)
			}
		}
		statics = subset
	}
	minStatic := cluster.Seconds(math.Inf(1))
	bestStatic := ""
	for _, plan := range statics {
		res, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(0))
		if err != nil {
			return nil, err
		}
		r.Add(plan.Name(), res.Converged, res.Iterations, res.Time)
		if res.Converged && res.Time < minStatic {
			minStatic, bestStatic = res.Time, plan.Name()
		}
	}

	// The adaptive run: speculation, chosen plan, re-optimization checks,
	// switches — all on one clock. The speculation budget is deliberately
	// tight: less speculation data means worse extrapolation at tight
	// tolerances (the Figure 6 effect the scenario is built on).
	sim := cfg.sim()
	ar, err := runAdaptive(sim, st, p, cfg)
	if err != nil {
		return nil, err
	}
	total := sim.Now()
	r.Add("adaptive: "+ar.Result.PlanName, ar.Result.Converged, ar.Result.Iterations, total)

	r.Note("optimizer chose %s (estimated %d iters); best static %s at %.3gs",
		ar.Decision.Best.Plan.Name(), ar.Decision.Best.Iterations, bestStatic, float64(minStatic))
	for _, sw := range ar.Refits.Switches() {
		r.Note("switch at iter %d: %s -> %s (refit a=%.4g vs spec a=%.4g at eps=%.4g)",
			sw.Iter, sw.Plan, sw.To, sw.FittedA, sw.SpecA, sw.Epsilon)
	}
	// One line per run of consecutive checks that took the same action for
	// the same reason.
	for i, j := 0, 0; i < len(ar.Refits); i = j {
		ev := ar.Refits[i]
		for j = i + 1; j < len(ar.Refits) && ar.Refits[j].Action == ev.Action && ar.Refits[j].Reason == ev.Reason; j++ {
		}
		switch {
		case ev.Action == "converging": // looked, and decided nothing
		case j-i == 1:
			r.Note("decision log: iter %d: %s", ev.Iter, ev.Reason)
		default:
			r.Note("decision log: iters %d-%d (%d checks): %s", ev.Iter, ar.Refits[j-1].Iter, j-i, ev.Reason)
		}
	}
	if !math.IsInf(float64(minStatic), 0) {
		r.Note("adaptive %.3gs vs best static %.3gs (speedup %.2fx, speculation+switch overhead included)",
			float64(total), float64(minStatic), float64(minStatic)/float64(total))
	}
	return r, nil
}

// adaptiveRun is the adaptive run's outcome: the result over every executed
// plan (PlanName chains them), the decision it started from and the
// controller's history.
type adaptiveRun struct {
	Result   *engine.Result
	Decision *planner.Decision
	Refits   planner.History
}

// runAdaptive optimizes on sim, then trains the chosen plan with the
// controller checking every 50 iterations, on the same clock.
func runAdaptive(sim *cluster.Sim, st *storage.Store, p gd.Params, cfg Config) (*adaptiveRun, error) {
	dec, err := planner.Choose(sim, st, p, planner.Options{Estimator: adaptiveEstimator(cfg)})
	if err != nil {
		return nil, err
	}
	ctl := planner.NewController(sim, st, p, dec, false, planner.AdaptiveConfig{Every: 50})
	plan := dec.Best.Plan
	tr, err := engine.NewTrainer(sim, st, &plan, cfg.engineOpts(0))
	if err != nil {
		return nil, err
	}
	for !tr.Done() {
		if tr, err = ctl.Step(tr); err != nil {
			return nil, err
		}
	}
	res := tr.Finish()
	res.PlanName = ctl.PlanName()
	return &adaptiveRun{Result: res, Decision: dec, Refits: ctl.History}, nil
}

// adaptiveScenario builds the skewed-speculation workload: a noisy,
// non-separable classification set large enough that batch-1000 sampling on
// the full data is genuinely stochastic, with a tolerance tight enough that
// speculation's extrapolation error (Figure 6) mis-ranks the space.
func adaptiveScenario(cfg Config) (*data.Dataset, gd.Params, error) {
	n := 20_000_000 / cfg.Scale
	if cfg.Quick {
		n = 5_000_000 / cfg.Scale
	}
	if n < 10_000 {
		n = 10_000
	}
	ds, err := cfg.GeneratedDataset(synth.Spec{
		Name: fmt.Sprintf("adaptive-skew@%d", cfg.Scale), Task: data.TaskLogisticRegression,
		N: n, D: 40, Density: 0.6, Noise: 0.6, Margin: 0.5, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, gd.Params{}, err
	}
	p := ParamsFor(ds, 2e-4, 4000)
	return ds, p, nil
}

// adaptiveEstimator is the Section 8 estimator with a 3-second speculation
// budget instead of 10 — the mis-estimation scenario's second ingredient.
func adaptiveEstimator(cfg Config) estimator.Config {
	e := cfg.estimatorFor()
	e.TimeBudget = 3
	return e
}
