package experiments

import (
	"ml4all/internal/baselines"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
)

// Fig11 reproduces the abstraction benefit/overhead experiment (Figure 11):
// on adult, rcv1 and svm1, run SGD, MGD(1k), MGD(10k) and BGD three ways —
// a hand-coded engine program ("Spark"), the same plan through the ML4all
// abstraction, and the Bismarck UDA abstraction. The shapes to hold: ML4all
// matches hand-coded within noise; Bismarck matches on small configurations
// but loses once gradient computation is worth distributing, and fails
// outright on rcv1 BGD / rcv1 MGD(10k) / svm1 BGD.
func Fig11(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig11",
		Title:  "Abstraction benefit/overhead (s)",
		Header: []string{"dataset", "config", "Spark(hand)", "ML4all", "Bismarck"},
	}

	datasets := []string{"adult", "rcv1", "svm1"}
	if cfg.Quick {
		datasets = []string{"adult", "rcv1"}
	}
	type config struct {
		label string
		algo  gd.Algo
		batch int
	}
	configs := []config{
		{"SGD", gd.SGD, 1},
		{"MGD(1k)", gd.MGD, 1000},
		{"MGD(10k)", gd.MGD, 10000},
		{"BGD", gd.BGD, 0},
	}

	bismarckFailures := []string{}
	var maxOverhead float64
	for _, name := range datasets {
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		for _, c := range configs {
			p := ParamsFor(ds, 0.001, 100)
			if c.batch > 0 {
				p.BatchSize = c.batch
			}
			plan, err := gd.ForAlgo(p, c.algo)
			if err != nil {
				return nil, err
			}

			// "Hand-coded Spark": the identical physical plan executed
			// directly, different jitter stream (a different hand-rolled
			// program would not schedule identically).
			hand, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(100))
			if err != nil {
				return nil, err
			}
			// ML4all: the plan as the optimizer's executor runs it.
			ml, err := engine.Run(cfg.sim(), st, &plan, cfg.engineOpts(0))
			if err != nil {
				return nil, err
			}
			bis, err := runBaselineCell(func() (*baselines.Result, error) {
				return baselines.RunBismarck(ClusterFor(cfg.Scale), ds, p, c.algo,
					BismarckFor(cfg.Scale), cfg.baselineOpts(cfg.Seed))
			})
			if err != nil {
				return nil, err
			}
			if !bis.ok {
				bismarckFailures = append(bismarckFailures, name+"/"+c.label)
			}

			overhead := float64(ml.Time)/float64(hand.Time) - 1
			if overhead > maxOverhead {
				maxOverhead = overhead
			}
			r.Add(name, c.label, hand.Time, ml.Time, bis.String())
		}
	}
	r.Note("max ML4all overhead vs hand-coded: %.1f%% (jitter-level)", maxOverhead*100)
	r.Note("bismarck failures: %v (paper: rcv1/BGD, rcv1/MGD(10k), svm1/BGD)", bismarckFailures)
	return r, nil
}
