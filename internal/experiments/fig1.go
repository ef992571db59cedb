package experiments

import (
	"fmt"

	"ml4all/internal/cluster"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
)

// Fig1 reproduces the motivation experiment (Figure 1, right side): train
// adult, covtype and rcv1 to their per-dataset tolerances with each of BGD,
// SGD and MGD and show that no algorithm wins everywhere, with more than an
// order of magnitude between best and worst somewhere in the grid.
//
// Deviation from the paper: Figure 1 trains SVM on adult/covtype; on our
// margin-gap synthetic stand-ins hinge SGD degenerates (a single satisfied
// draw yields an exact zero delta), so this experiment uses the datasets'
// Table 2 tasks (logistic regression) for adult/covtype, which preserves the
// figure's claim — different winners per dataset — without the degeneracy.
func Fig1(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{
		ID:     "fig1",
		Title:  "Motivation: no all-times GD winner (training time, simulated s)",
		Header: []string{"dataset", "task", "tolerance", "BGD", "SGD", "MGD", "winner"},
	}

	rows := []struct {
		name string
		tol  float64
	}{
		{"adult", 0.01},
		{"covtype", 0.01},
		{"rcv1", 1e-4},
	}

	winners := map[string]bool{}
	var globalMin, globalMax cluster.Seconds
	first := true
	for _, row := range rows {
		ds, err := cfg.Dataset(row.name)
		if err != nil {
			return nil, err
		}
		p := ParamsFor(ds, row.tol, 1000)

		type cell struct {
			res *engine.Result
		}
		cells := map[gd.Algo]cell{}
		for _, algo := range []gd.Algo{gd.BGD, gd.SGD, gd.MGD} {
			res, err := cfg.runAlgo(ds, p, algo)
			if err != nil {
				return nil, err
			}
			cells[algo] = cell{res}
			if first || res.Time < globalMin {
				globalMin = res.Time
			}
			if first || res.Time > globalMax {
				globalMax = res.Time
			}
			first = false
		}

		// Winner: fastest converged run; if nothing converged (the paper's
		// rcv1@1e-4 regime, where every algorithm hits the iteration cap),
		// fastest overall.
		winner := gd.BGD
		chosen := false
		for _, a := range []gd.Algo{gd.BGD, gd.SGD, gd.MGD} {
			c := cells[a]
			if !c.res.Converged {
				continue
			}
			if !chosen || c.res.Time < cells[winner].res.Time {
				winner, chosen = a, true
			}
		}
		if !chosen {
			for _, a := range []gd.Algo{gd.SGD, gd.MGD} {
				if cells[a].res.Time < cells[winner].res.Time {
					winner = a
				}
			}
		}
		winners[winner.String()] = true

		fmtCell := func(a gd.Algo) string {
			c := cells[a]
			if c.res.Converged {
				return fmt.Sprintf("%.1f", float64(c.res.Time))
			}
			return fmt.Sprintf(">%.1f", float64(c.res.Time)) // hit the cap
		}
		r.Add(row.name, ds.Task.String(), fmt.Sprintf("%g", row.tol),
			fmtCell(gd.BGD), fmtCell(gd.SGD), fmtCell(gd.MGD), winner.String())
	}

	if len(winners) > 1 {
		r.Note("different winners across datasets (%d distinct) — an optimizer is needed", len(winners))
	} else {
		r.Note("WARNING: a single algorithm won everywhere at this scale")
	}
	r.Note("max/min spread across the grid: %.1fx", float64(globalMax/globalMin))
	return r, nil
}
