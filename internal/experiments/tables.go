package experiments

import (
	"fmt"

	"ml4all/internal/gd"
)

// Table2 reproduces the dataset-suite table (Table 2) at the configured
// scale: name, task, points, features, bytes, density for every stand-in.
func Table2(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{ID: "table2",
		Title:  fmt.Sprintf("Dataset suite at scale 1/%d", cfg.Scale),
		Header: []string{"name", "task", "#points", "#features", "size", "density", "#partitions"}}
	names := []string{"adult", "covtype", "yearpred", "rcv1", "higgs", "svm1", "svm2", "svm3"}
	if cfg.Quick {
		names = names[:5]
	}
	for _, name := range names {
		ds, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		st, err := cfg.store(ds)
		if err != nil {
			return nil, err
		}
		stats := ds.Stats()
		r.Add(stats.Name, stats.Task.String(), stats.Points, stats.Features,
			fmt.Sprintf("%.1fMB", float64(stats.Bytes)/(1<<20)),
			fmt.Sprintf("%.3g", stats.Density), st.NumPartitions())
	}
	return r, nil
}

// Table4 reproduces the chosen-plan table (Table 4): for each dataset and
// each GD algorithm, the physical plan the optimizer picks and the real
// iteration count of running that plan to convergence (tolerance 0.001, max
// 1000).
func Table4(cfg Config) (*Report, error) {
	r := &Report{ID: "table4",
		Title:  "Chosen plan and iterations per GD algorithm",
		Header: []string{"dataset", "SGD plan", "SGD iters", "MGD plan", "MGD iters", "BGD iters"}}

	datasets := []string{"adult", "covtype", "yearpred", "rcv1", "higgs", "svm1", "svm2", "svm3"}
	if cfg.Quick {
		datasets = []string{"adult", "covtype", "rcv1", "svm1"}
	}

	sgdLazyShuffleOnLarge := 0
	largeCount := 0
	for _, name := range datasets {
		sw, err := cfg.sweep(name)
		if err != nil {
			return nil, err
		}

		cells := []any{name}
		for _, algo := range []gd.Algo{gd.SGD, gd.MGD, gd.BGD} {
			plan, res := sw.bestFor(algo)
			if algo != gd.BGD {
				cells = append(cells, fmt.Sprintf("%s-%s", plan.Transform, plan.Sampling))
			}
			cells = append(cells, res.Iterations)
		}
		r.Add(cells...)

		large := name == "higgs" || name == "svm1" || name == "svm2" || name == "svm3" || name == "yearpred"
		if large {
			largeCount++
			if sgdPlan, _ := sw.bestFor(gd.SGD); sgdPlan.Name() == "SGD-lazy-shuffle" {
				sgdLazyShuffleOnLarge++
			}
		}
	}
	r.Note("SGD-lazy-shuffle chosen on %d/%d large datasets (paper Table 4: all)", sgdLazyShuffleOnLarge, largeCount)
	return r, nil
}
