package experiments

import (
	"fmt"

	"ml4all/internal/gd"
)

// The Section 8.6 in-depth ablations (Figures 13, 14, 17, 18): fix one
// physical dimension, sweep the other, and report training time per dataset.
// MGD runs with batch 1000 and both run tolerance 0.001, max 1000 iterations
// — the setup of the shared sweep, of which every figure here is a view.

// ablationDatasets mirrors the x-axis of Figures 13/14/17/18.
func (c Config) ablationDatasets() []string {
	if c.Quick {
		return []string{"adult", "covtype", "rcv1", "svm1"}
	}
	return []string{"adult", "covtype", "yearpred", "rcv1", "higgs", "svm1", "svm2"}
}

// samplingAblation builds the Figure 13/17 report for one algorithm: eager
// (a) and lazy (b) transformation against each sampling technique.
func (c Config) samplingAblation(id string, algo gd.Algo) (*Report, error) {
	r := &Report{ID: id,
		Title:  fmt.Sprintf("%[1]s sampling effect, eager transformation (s) / %[1]s sampling effect, lazy transformation (s)", algo),
		Header: []string{"transform", "dataset", "bernoulli", "random-partition", "shuffle-partition"}}
	for _, tp := range []gd.TransformPlacement{gd.Eager, gd.Lazy} {
		for _, name := range c.ablationDatasets() {
			sw, err := c.sweep(name)
			if err != nil {
				return nil, err
			}
			cells := []any{tp.String(), name}
			for _, sk := range []gd.SamplingKind{gd.Bernoulli, gd.RandomPartition, gd.ShuffledPartition} {
				if tp == gd.Lazy && sk == gd.Bernoulli {
					cells = append(cells, "n/a") // discarded plan (Section 6)
					continue
				}
				cells = append(cells, sw.cell(algo, tp, sk).Time)
			}
			r.Add(cells...)
		}
	}
	return r, nil
}

// Fig13 is the MGD sampling-strategy ablation (Figure 13).
func Fig13(cfg Config) (*Report, error) { return cfg.samplingAblation("fig13", gd.MGD) }

// Fig17 is the SGD sampling-strategy ablation (Figure 17, Appendix E).
func Fig17(cfg Config) (*Report, error) { return cfg.samplingAblation("fig17", gd.SGD) }

// transformAblation builds the Figure 14/18 style report: eager vs lazy for
// a fixed sampling strategy, for SGD and MGD.
func (c Config) transformAblation(id, title string, sk gd.SamplingKind) (*Report, error) {
	r := &Report{ID: id, Title: title,
		Header: []string{"algo", "dataset", "eager", "lazy", "lazy wins"}}
	sgdLazyWins, sgdCells := 0, 0
	for _, algo := range []gd.Algo{gd.SGD, gd.MGD} {
		for _, name := range c.ablationDatasets() {
			sw, err := c.sweep(name)
			if err != nil {
				return nil, err
			}
			eager, lazy := sw.cell(algo, gd.Eager, sk).Time, sw.cell(algo, gd.Lazy, sk).Time
			wins := lazy < eager
			if algo == gd.SGD {
				sgdCells++
				if wins {
					sgdLazyWins++
				}
			}
			r.Add(algo.String(), name, eager, lazy, wins)
		}
	}
	r.Note("SGD prefers lazy on %d/%d datasets (paper: always)", sgdLazyWins, sgdCells)
	return r, nil
}

// Fig14 is the transformation ablation under shuffled-partition sampling
// (Figure 14).
func Fig14(cfg Config) (*Report, error) {
	return cfg.transformAblation("fig14",
		"Transformation effect, shuffle-partition sampling (s)", gd.ShuffledPartition)
}

// Fig18 is the transformation ablation under random-partition sampling
// (Figure 18, Appendix E).
func Fig18(cfg Config) (*Report, error) {
	return cfg.transformAblation("fig18",
		"Transformation effect, random-partition sampling (s)", gd.RandomPartition)
}
