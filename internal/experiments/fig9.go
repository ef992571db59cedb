package experiments

import (
	"errors"
	"fmt"

	"ml4all/internal/baselines"
	"ml4all/internal/cluster"
	"ml4all/internal/gd"
)

// Fig9 reproduces the system comparison (Figure 9 a/b/c): for each dataset
// and each GD algorithm, train with MLlib, SystemML and ML4all (which picks
// the best physical plan for the fixed algorithm). OOM/timeout failures are
// reported as the paper reports them. The shape to hold: ML4all at least
// matches MLlib everywhere and wins big on large data; SystemML is
// competitive locally on small inputs but pays conversion and dies on large
// dense data.
func Fig9(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig9",
		Title:  "Training time by system (s); conversion included for SystemML",
		Header: []string{"algo", "dataset", "MLlib", "SystemML", "ML4all", "ml4all plan"},
	}

	datasets := []string{"adult", "covtype", "yearpred", "rcv1", "higgs", "svm1", "svm2", "svm3"}
	if cfg.Quick {
		datasets = []string{"adult", "covtype", "rcv1", "svm1"}
	}

	mlWins, cells := 0, 0
	for _, algo := range []gd.Algo{gd.BGD, gd.MGD, gd.SGD} {
		for _, name := range datasets {
			ds, err := cfg.Dataset(name)
			if err != nil {
				return nil, err
			}
			p := sweepParams(ds)

			mllib, err := runBaselineCell(func() (*baselines.Result, error) {
				return baselines.RunMLlib(ClusterFor(cfg.Scale), ds, p, algo,
					baselines.DefaultMLlib(), cfg.baselineOpts(cfg.Seed))
			})
			if err != nil {
				return nil, err
			}
			sysml, err := runBaselineCell(func() (*baselines.Result, error) {
				return baselines.RunSystemML(ClusterFor(cfg.Scale), ds, p, algo,
					SystemMLFor(cfg.Scale), cfg.baselineOpts(cfg.Seed))
			})
			if err != nil {
				return nil, err
			}

			sw, err := cfg.sweep(name)
			if err != nil {
				return nil, err
			}
			plan, res := sw.bestFor(algo)

			if mllib.ok && res.Time <= mllib.t {
				mlWins++
			}
			if mllib.ok {
				cells++
			}
			r.Add(algo.String(), name, mllib.String(), sysml.String(),
				res.Time, plan.Name())
		}
	}
	r.Note("ML4all at least matches MLlib on %d/%d comparable cells", mlWins, cells)
	return r, nil
}

// baselineCell is one baseline measurement, or (ok false) the out-of-memory
// failure the paper reports in its place.
type baselineCell struct {
	ok bool
	t  cluster.Seconds
}

// runBaselineCell runs one baseline. Running out of memory is a result the
// paper annotates; any other error fails the experiment.
func runBaselineCell(f func() (*baselines.Result, error)) (baselineCell, error) {
	res, err := f()
	if errors.Is(err, baselines.ErrOutOfMemory) {
		return baselineCell{}, nil
	}
	if err != nil {
		return baselineCell{}, err
	}
	return baselineCell{ok: true, t: res.Time}, nil
}

// String renders the cell the way the paper annotates failures.
func (c baselineCell) String() string {
	if !c.ok {
		return "OOM"
	}
	return fmt.Sprintf("%.1f", float64(c.t))
}
