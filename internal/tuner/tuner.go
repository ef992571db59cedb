// Package tuner implements the extension the paper's conclusion sketches:
// reusing the speculative machinery of the GD optimizer "to assist in other
// design choices in ML systems, such as hyperparameter tuning". The tuner
// speculates a plan on a small sample once per candidate step-size
// configuration, scores each candidate by the training objective it reaches
// within the time budget, and returns the candidates ranked — the same
// cold-start-free treatment Section 5 gives the iteration count. (Scoring by
// convergence delta would be wrong: a microscopic step produces microscopic
// deltas while learning nothing, so the objective is the criterion.)
package tuner

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ml4all/internal/cluster"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/step"
	"ml4all/internal/storage"
)

// Candidate is one hyperparameter configuration under trial.
type Candidate struct {
	Step step.Size
}

// Trial is the outcome of speculating one candidate.
type Trial struct {
	Candidate Candidate
	// FinalObjective is the regularized training objective over the sample
	// at the end of the trial — the ranking criterion. Convergence deltas
	// alone cannot rank step sizes: a microscopic step yields microscopic
	// deltas ("converged") while learning nothing.
	FinalObjective float64
	// BestError is the smallest convergence delta the speculation reached.
	BestError float64
	// IterationsTo reports the iterations the run needed to reach
	// Config.ScoreTolerance, or MaxInt32 if it never did.
	IterationsTo int
	// EstimatedA is the fitted a of T(ε) = a/ε over the observed sequence
	// (infinite when nothing improved).
	EstimatedA float64
	// Diverged reports a run whose weights left the finite range.
	Diverged bool
	// SpecTime is the simulated time the trial consumed.
	SpecTime cluster.Seconds
}

// Config tunes the tuner.
type Config struct {
	// SampleSize per trial; 0 means 1000 (the estimator's default).
	SampleSize int
	// Budget per trial in simulated seconds; 0 means 10.
	Budget cluster.Seconds
	// ScoreTolerance is the tolerance candidates race to; 0 means the
	// plan's own tolerance.
	ScoreTolerance float64
	Seed           int64
	// Workers sizes the engine's worker pool for trial runs (0 =
	// GOMAXPROCS, 1 = serial); trial outcomes are worker-count invariant.
	Workers int
	// TrialWorkers bounds how many candidate trials run concurrently.
	// Every trial owns an independent simulator and a private result slot,
	// and the final ranking sorts by (index-stable) scores, so results and
	// order are bit-identical to a serial sweep for any value. 0 means
	// GOMAXPROCS; 1 forces the serial sweep.
	TrialWorkers int
}

func (c Config) withDefaults(plan gd.Plan) Config {
	if c.SampleSize <= 0 {
		c.SampleSize = 1000
	}
	if c.Budget <= 0 {
		c.Budget = 10
	}
	if c.ScoreTolerance <= 0 {
		c.ScoreTolerance = plan.Tolerance
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DefaultGrid returns the standard step-size candidates: β/√i for β in a
// log grid, plus 1/i — the schedules the paper's Appendix E exercises.
func DefaultGrid() []Candidate {
	betas := []float64{0.01, 0.1, 0.5, 1, 2, 10}
	out := make([]Candidate, 0, len(betas)+1)
	for _, b := range betas {
		out = append(out, Candidate{Step: step.InvSqrt{Beta: b}})
	}
	out = append(out, Candidate{Step: step.Inv{Beta: 1}})
	return out
}

// Tune speculates every candidate on a shared sample and returns the trials
// ranked by the training objective each reached within the budget (scored
// with the given gradient and regularizer); diverged candidates rank last.
// The winning step size is Trials[0].Candidate.Step.
func Tune(plan gd.Plan, store *storage.Store, g gradients.Gradient, reg gradients.L2, cands []Candidate, cfg Config) ([]Trial, error) {
	if g == nil {
		return nil, fmt.Errorf("tuner: scoring gradient required")
	}
	if len(cands) == 0 {
		cands = DefaultGrid()
	}
	cfg = cfg.withDefaults(plan)

	sample := store.Dataset.Sample(cfg.SampleSize, cfg.Seed)
	sample.Mat = sample.Mat.Compact() // contiguous rows: every trial's passes take the block kernels
	layout := store.Layout
	layout.PartitionBytes = 1 << 62
	sampleStore, err := storage.Build(sample, layout)
	if err != nil {
		return nil, err
	}

	for _, cand := range cands {
		if cand.Step == nil {
			return nil, fmt.Errorf("tuner: candidate without a step size")
		}
	}

	// Trials are independent — each owns a fresh simulator over the shared
	// read-only sample store — so they fan out over a worker pool. Each
	// worker writes only its own index's slot and the ranking below is a
	// stable sort over those slots, keeping results and order bit-identical
	// to the serial sweep for any TrialWorkers value.
	trials := make([]Trial, len(cands))
	errs := make([]error, len(cands))
	runTrial := func(i int) {
		cand := cands[i]
		specPlan := plan
		specPlan.Step = cand.Step
		specPlan.Tolerance = cfg.ScoreTolerance
		specPlan.MaxIter = 1 << 20
		specPlan.Mode = gd.CentralizedMode

		simCfg := cluster.SpeculationLocal()
		simCfg.Seed = cfg.Seed
		sim := cluster.New(simCfg)
		res, err := engine.Run(sim, sampleStore, &specPlan, engine.Options{
			TimeBudget: cfg.Budget,
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
		})
		if err != nil {
			errs[i] = fmt.Errorf("tuner: speculating %s: %w", cand.Step.Name(), err)
			return
		}

		tr := Trial{
			Candidate:      cand,
			FinalObjective: math.Inf(1),
			BestError:      math.Inf(1),
			Diverged:       res.Diverged,
			SpecTime:       res.Time,
		}
		if !res.Diverged {
			tr.FinalObjective = gradients.ObjectiveMatrix(g, reg, res.Weights, sample.Mat)
		}
		tr.IterationsTo = math.MaxInt32
		for i, d := range res.Deltas {
			if d < tr.BestError && d > 0 {
				tr.BestError = d
			}
			if d < cfg.ScoreTolerance && tr.IterationsTo == math.MaxInt32 {
				tr.IterationsTo = i + 1
			}
		}
		seq := estimator.MonotoneSequence(res.Deltas)
		if a, err := estimator.FitInverse(seq); err == nil {
			tr.EstimatedA = a
		} else {
			tr.EstimatedA = math.Inf(1)
		}
		trials[i] = tr
	}

	workers := cfg.TrialWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i := range cands {
			runTrial(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cands) {
						return
					}
					runTrial(i)
				}
			}()
		}
		wg.Wait()
	}
	// Surface the lowest-index failure, like the serial sweep would have.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sort.SliceStable(trials, func(i, j int) bool {
		a, b := trials[i], trials[j]
		if a.Diverged != b.Diverged {
			return !a.Diverged
		}
		if a.FinalObjective != b.FinalObjective {
			return a.FinalObjective < b.FinalObjective
		}
		return a.IterationsTo < b.IterationsTo
	})
	return trials, nil
}

// Best is a convenience wrapper returning the winning step size from the
// default grid.
func Best(plan gd.Plan, store *storage.Store, g gradients.Gradient, reg gradients.L2, cfg Config) (step.Size, []Trial, error) {
	trials, err := Tune(plan, store, g, reg, nil, cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(trials) == 0 || trials[0].Diverged {
		return nil, trials, fmt.Errorf("tuner: every candidate diverged")
	}
	return trials[0].Candidate.Step, trials, nil
}
