package experiments

import (
	"ml4all/internal/baselines"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/synth"
)

// Fig10 reproduces the scalability experiment (Figure 10): SGD training time
// as the SVM A family scales the number of points (a) and the SVM B family
// scales the number of features (b), comparing MLlib against ML4all's
// eager-random and lazy-shuffle plans. The shape to hold: both ML4all plans
// beat MLlib by an order of magnitude and lazy-shuffle scales best.
func Fig10(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig10",
		Title:  "SGD scalability (s): MLlib vs eager-random vs lazy-shuffle",
		Header: []string{"sweep", "dataset", "n", "d", "MLlib", "eager-random", "lazy-shuffle"},
	}

	pointsSweep := []int{2_700_000, 5_516_800, 11_000_000, 22_000_000, 44_134_400, 88_268_800}
	featureSweep := []int{1_000, 10_000, 50_000, 100_000, 500_000}
	if cfg.Quick {
		pointsSweep = []int{2_700_000, 11_000_000, 44_134_400}
		featureSweep = []int{1_000, 50_000, 500_000}
	}

	wins := 0
	cells := 0
	row := func(sweep string, spec synth.Spec) error {
		ds, err := cfg.GeneratedDataset(spec)
		if err != nil {
			return err
		}
		p := ParamsFor(ds, 0.001, 1000)

		ml, err := runBaselineCell(func() (*baselines.Result, error) {
			return baselines.RunMLlib(ClusterFor(cfg.Scale), ds, p, gd.SGD,
				baselines.DefaultMLlib(), cfg.baselineOpts(cfg.Seed))
		})
		if err != nil {
			return err
		}

		st, err := cfg.store(ds)
		if err != nil {
			return err
		}
		eagerRandom := gd.NewSGD(p, gd.Eager, gd.RandomPartition)
		er, err := engine.Run(cfg.sim(), st, &eagerRandom, cfg.engineOpts(0))
		if err != nil {
			return err
		}
		lazyShuffle := gd.NewSGD(p, gd.Lazy, gd.ShuffledPartition)
		ls, err := engine.Run(cfg.sim(), st, &lazyShuffle, cfg.engineOpts(0))
		if err != nil {
			return err
		}
		if ml.ok {
			cells++
			if ls.Time < ml.t && er.Time < ml.t {
				wins++
			}
		}
		r.Add(sweep, spec.Name, ds.N(), ds.NumFeatures, ml.String(),
			er.Time, ls.Time)
		return nil
	}

	for _, pts := range pointsSweep {
		if err := row("points", synth.SVMA(pts, cfg.Scale)); err != nil {
			return nil, err
		}
	}
	for _, feats := range featureSweep {
		if err := row("features", synth.SVMB(feats, cfg.Scale)); err != nil {
			return nil, err
		}
	}
	r.Note("both ML4all plans beat MLlib on %d/%d cells", wins, cells)
	r.Note("sweeps scaled 1/%d; see synth.SVMA/SVMB for the mapping to paper sizes", cfg.Scale)
	return r, nil
}
