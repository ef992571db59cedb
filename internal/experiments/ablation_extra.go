package experiments

import (
	"fmt"
	"slices"

	"ml4all/internal/cluster"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
)

// The extra ablations DESIGN.md calls out beyond the paper's own figures:
// sensitivity of the iterations estimator to its speculation budget, and the
// effect of the hybrid operator-placement rule.

// AblationSpeculation sweeps the estimator's sample size and time budget on
// covtype and reports how the estimate for T(0.001) moves — the Section 5
// knobs (defaults 0.05/1min; Section 8 uses 0.1/10s) — for each algorithm's
// speculated plan: the first plan of planner.Space with that algorithm, the
// one planner.Choose speculates.
func AblationSpeculation(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{ID: "ablation-speculation",
		Title:  "Iterations-estimator sensitivity (covtype, target eps 0.001)",
		Header: []string{"algo", "sample", "budget(s)", "points fit", "fitted a", "est T(.001)", "spec time(s)"}}

	ds, err := cfg.Dataset("covtype")
	if err != nil {
		return nil, err
	}
	st, err := cfg.store(ds)
	if err != nil {
		return nil, err
	}
	samples := []int{250, 500, 1000, 2000}
	budgets := []cluster.Seconds{2, 10, 60}
	if cfg.Quick {
		samples = []int{500, 1000}
		budgets = []cluster.Seconds{2, 10}
	}
	seen := map[gd.Algo]bool{}
	for _, plan := range planner.Space(ParamsFor(ds, 0.001, 1000)) {
		if seen[plan.Algorithm] {
			continue
		}
		seen[plan.Algorithm] = true
		var estimates []int
		for _, m := range samples {
			for _, b := range budgets {
				est, err := estimator.Speculate(plan, st, estimator.Config{
					SampleSize: m, SpecTolerance: 0.1, TimeBudget: b, Seed: cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				t := est.Iterations(0.001)
				estimates = append(estimates, t)
				r.Add(plan.Name(), m, float64(b), len(est.Sequence), est.A, t, est.SpecTime)
			}
		}
		lo, hi := slices.Min(estimates), slices.Max(estimates)
		r.Note("%s estimate spread across settings: %d..%d (%.1fx)", plan.Name(), lo, hi, float64(hi)/float64(lo))
	}
	return r, nil
}

// AblationPlacement forces each execution mode for BGD on yearpred
// (multi-partition) and adult (single-partition), quantifying what the
// Appendix D hybrid rule buys: distributed wins on multi-partition data,
// centralized on single-partition data, and Auto always matches the winner.
func AblationPlacement(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{ID: "ablation-placement",
		Title:  "Operator placement (BGD, 50 fixed iterations, time in s)",
		Header: []string{"dataset", "partitions", "auto", "centralized", "distributed", "auto matches winner"}}

	autoWins := 0
	for _, name := range []string{"adult", "yearpred"} {
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		p := ParamsFor(ds, 1e-12, 50)
		times := map[gd.ExecMode]cluster.Seconds{}
		for _, mode := range []gd.ExecMode{gd.AutoMode, gd.CentralizedMode, gd.DistributedMode} {
			plan := gd.NewBGD(p)
			plan.Looper = gd.FixedIterLooper{}
			plan.Mode = mode
			res, err := cfg.runPlan(ds, plan)
			if err != nil {
				return nil, err
			}
			times[mode] = res.Time
		}
		winner := gd.CentralizedMode
		if times[gd.DistributedMode] < times[gd.CentralizedMode] {
			winner = gd.DistributedMode
		}
		// Auto matches the winner within jitter.
		match := float64(times[gd.AutoMode]) <= 1.25*float64(times[winner])
		if match {
			autoWins++
		}
		r.Add(name, st.NumPartitions(), times[gd.AutoMode], times[gd.CentralizedMode],
			times[gd.DistributedMode], fmt.Sprint(match))
	}
	r.Note("auto placement matched the better mode on %d/2 datasets", autoWins)
	return r, nil
}
