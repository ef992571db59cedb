package experiments

import (
	"fmt"
	"math"

	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/step"
	"ml4all/internal/storage"
)

// AblationTuner exercises the hyperparameter-tuning extension the paper's
// conclusion proposes — reusing the speculative machinery "to assist in other
// design choices in ML systems, such as hyperparameter tuning": for each
// dataset, speculate a step-size grid on a sample, pick the winner by
// training objective, and compare the winner's full-data objective against
// the paper's fixed 1/sqrt(i) default. The claim to check: the tuned step
// never loses badly to the default, and wins visibly somewhere — at
// speculation cost comparable to the optimizer's own (a few seconds).
func AblationTuner(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{ID: "ablation-tuner",
		Title:  "Speculative step-size tuning vs the fixed 1/sqrt(i) default",
		Header: []string{"dataset", "tuned step", "tuned obj", "default obj", "improvement", "spec(s)"}}

	grid := stepGrid()
	datasets := []string{"adult", "covtype", "yearpred"}
	if cfg.Quick {
		datasets = datasets[:2]
	}
	wins := 0
	for _, name := range datasets {
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		p := ParamsFor(ds, 0.001, 300)
		plan := gd.NewBGD(p)
		g := gradients.ForTask(ds.Task)
		reg := gradients.L2{Lambda: p.Lambda}

		trials, best, err := speculateSteps(cfg, plan, st, g, reg, grid)
		if err != nil {
			return nil, err
		}
		var specTotal float64
		for _, tr := range trials {
			specTotal += float64(tr.est.SpecTime)
		}

		// Full-data comparison at a fixed iteration budget.
		tuned := plan
		tuned.Step = trials[best].step
		tuned.Looper = gd.FixedIterLooper{}
		resTuned, err := cfg.runPlan(ds, tuned)
		if err != nil {
			return nil, err
		}
		def := plan
		def.Looper = gd.FixedIterLooper{}
		resDef, err := cfg.runPlan(ds, def)
		if err != nil {
			return nil, err
		}
		// Blocked objective over the arena: same sum, no []Row materialization.
		objTuned := gradients.ObjectiveMatrix(g, reg, resTuned.Weights, ds.Mat)
		objDef := gradients.ObjectiveMatrix(g, reg, resDef.Weights, ds.Mat)
		improvement := (objDef - objTuned) / math.Max(objDef, 1e-12)
		if objTuned <= objDef*1.02 {
			wins++
		}
		r.Add(name, tuned.Step.Name(), fmt.Sprintf("%.4f", objTuned), fmt.Sprintf("%.4f", objDef),
			fmt.Sprintf("%+.1f%%", improvement*100), specTotal)
	}
	r.Note("tuned step matched or beat the default on %d/%d datasets", wins, len(datasets))
	return r, nil
}

// stepGrid is the ablation's candidate list: β/√i for β in a log grid, plus
// 1/i — the schedules the paper's Appendix E exercises.
func stepGrid() []step.Size {
	var grid []step.Size
	for _, b := range []float64{0.01, 0.1, 0.5, 1, 2, 10} {
		grid = append(grid, step.InvSqrt{Beta: b})
	}
	return append(grid, step.Inv{Beta: 1})
}

// stepTrial is one candidate step size's speculation run and the training
// objective its final weights reach on the sample (+Inf when it diverged).
type stepTrial struct {
	step      step.Size
	est       estimator.Estimate
	objective float64
}

// speculateSteps runs Algorithm 1 once per candidate step size on a 500-row
// sample under a 5 s budget, racing to the plan's own tolerance, and scores
// each run by the training objective on that sample. It returns the trials
// in candidate order and the index of the winner: the lowest objective, then
// the fewer iterations to the tolerance, then the earlier candidate. The
// objective, not the convergence delta, is the criterion: a microscopic step
// yields microscopic deltas while learning nothing. A diverged run is never
// picked, and it is an error when every run diverges.
func speculateSteps(cfg Config, plan gd.Plan, st *storage.Store, g gradients.Gradient, reg gradients.L2, cands []step.Size) ([]stepTrial, int, error) {
	ecfg := estimator.Config{SampleSize: 500, SpecTolerance: plan.Tolerance, TimeBudget: 5, Seed: cfg.Seed, Workers: cfg.Workers}
	sample := st.Dataset.Sample(ecfg.SampleSize, cfg.Seed)
	// reachedAt ranks a run that never reached the tolerance (Exact -1) last.
	reachedAt := func(e estimator.Estimate) int {
		if e.Exact < 0 {
			return math.MaxInt
		}
		return e.Exact
	}
	trials := make([]stepTrial, len(cands))
	best := -1
	for i, s := range cands {
		cand := plan
		cand.Step = s
		est, err := estimator.Speculate(cand, st, ecfg)
		if err != nil {
			return nil, -1, fmt.Errorf("experiments: speculating step %s: %w", s.Name(), err)
		}
		tr := stepTrial{step: s, est: est, objective: math.Inf(1)}
		if !est.Diverged {
			tr.objective = gradients.ObjectiveMatrix(g, reg, est.Weights, sample.Mat)
			if best < 0 || tr.objective < trials[best].objective ||
				tr.objective == trials[best].objective && reachedAt(est) < reachedAt(trials[best].est) {
				best = i
			}
		}
		trials[i] = tr
	}
	if best < 0 {
		return trials, -1, fmt.Errorf("experiments: every step-size candidate diverged")
	}
	return trials, best, nil
}
