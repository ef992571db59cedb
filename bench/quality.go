package main

import (
	"fmt"
	"math"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/synth"
)

// The paper's two quality yardsticks — does the optimizer pick the best
// plan, and is its iteration estimate close — need runs that converge, and
// how fast a run converges depends on the data far more than on anything a
// code change does: over ten seeds of one dataset shape the regret's
// quartiles sit 10-25 % apart and the estimate error's 30-45 %, outside any
// bound the benchmark contract admits. So the gated numbers come from a fixed
// panel — the registry's own Table 2 stand-ins, which carry their seeds — and
// repeat to the last digit on every run of every workload; the same sweep
// over data drawn from -seed is reported per layer (layers.go) to show a
// change generalizes.
//
// The panel is one dataset per task and layout, as in the paper's Table 4:
// svm1 (SVM, dense; cut to 8 000 rows and generated without its gap, see
// datasets.go), covtype (logistic, sparse binary) and yearpred (least
// squares, dense). Tolerance 0.05 within 500 iterations is what all three
// algorithms reach on all three, so every estimate has an observation to be
// compared with.
const (
	panelTolerance = 0.05
	panelMaxIter   = 500
)

func qualityPanel() ([]*data.Dataset, error) {
	var out []*data.Dataset
	for _, name := range []string{"svm1", "covtype", "yearpred"} {
		sp, err := synth.ByName(name, 0)
		if err != nil {
			return nil, err
		}
		if name == "svm1" {
			sp.N, sp.Gap = 8000, 0
		}
		ds, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// planRun is one plan of a sweep: what the optimizer expected and what
// executing it gave.
type planRun struct {
	Plan          string  `json:"plan"`
	Algo          string  `json:"algo"`
	EstIterations int     `json:"est_iterations"`
	EstSimSeconds float64 `json:"est_sim_s"`
	Iterations    int     `json:"iterations"`
	SimSeconds    float64 `json:"sim_s"`
	Converged     bool    `json:"converged"`
	WeightsHash   string  `json:"weights_hash"`
}

// sweepResult is the optimizer's decision on one dataset next to the outcome
// of every plan it could have chosen.
type sweepResult struct {
	Dataset     string    `json:"dataset"`
	Chosen      string    `json:"chosen"`
	SpecSim     float64   `json:"spec_sim_s"` // speculation + its driver job
	Runs        []planRun `json:"runs"`
	Regret      float64   `json:"regret"`
	IterErr     float64   `json:"iter_err"`
	NotComputed int       `json:"not_converged"`

	chosenModel *ml4all.Model
}

// sweep optimizes p on ds and then executes every plan of the search space,
// not only the chosen one; budget, when not nil, replaces each plan's
// iteration cap before it runs. Regret is the simulated time of the chosen plan's
// run over the fastest run that converged (over all runs when none did); the
// estimate error is the largest |ln(estimated/observed iterations)| over the
// runs that converged, the others being counted, not scored.
func sweep(sys *ml4all.System, ds *data.Dataset, p gd.Params, budget func(gd.Plan) int) (*sweepResult, error) {
	dec, err := sys.Optimize(ds, p)
	if err != nil {
		return nil, fmt.Errorf("bench: optimizing %s: %w", ds.Name, err)
	}
	out := &sweepResult{
		Dataset: ds.Name,
		Chosen:  dec.Best.Plan.Name(),
		SpecSim: float64(dec.SpecTime + sys.Cluster.JobInitSec),
	}
	best, bestConverged := math.Inf(1), math.Inf(1)
	var chosen float64
	for _, c := range dec.Ranked {
		if budget != nil {
			c.Plan.MaxIter = budget(c.Plan)
		}
		res, err := sys.Execute(ds, c.Plan)
		if err != nil {
			return nil, fmt.Errorf("bench: executing %s on %s: %w", c.Plan.Name(), ds.Name, err)
		}
		t := float64(res.Time)
		out.Runs = append(out.Runs, planRun{
			Plan: c.Plan.Name(), Algo: c.Plan.Algorithm.String(),
			EstIterations: c.Iterations, EstSimSeconds: float64(c.Cost),
			Iterations: res.Iterations, SimSeconds: t, Converged: res.Converged,
			WeightsHash: weightsHash(res.Weights),
		})
		best = math.Min(best, t)
		if res.Converged {
			bestConverged = math.Min(bestConverged, t)
			out.IterErr = math.Max(out.IterErr, math.Abs(math.Log(float64(c.Iterations)/float64(res.Iterations))))
		} else {
			out.NotComputed++
		}
		if c.Plan.Name() == out.Chosen {
			chosen = t
			out.chosenModel = &ml4all.Model{
				Name: ds.Name, Task: ds.Task, Weights: res.Weights, PlanName: c.Plan.Name(),
				Iterations: res.Iterations, TrainTime: res.Time, Converged: res.Converged,
			}
		}
	}
	if !math.IsInf(bestConverged, 1) {
		best = bestConverged
	}
	out.Regret = chosen / best
	return out, nil
}

// chosenSim is the simulated time from submitting the task to its model on
// the chosen plan: speculation, its driver job, and the chosen plan's run.
func (s *sweepResult) chosenSim() float64 {
	for _, r := range s.Runs {
		if r.Plan == s.Chosen {
			return s.SpecSim + r.SimSeconds
		}
	}
	return math.NaN()
}

// quality is the pair of gated yardsticks over a set of sweeps: the worst
// regret and the worst estimate error.
func quality(sweeps []*sweepResult) (regret, iterErr float64) {
	for _, s := range sweeps {
		regret = math.Max(regret, s.Regret)
		iterErr = math.Max(iterErr, s.IterErr)
	}
	return regret, iterErr
}

// runQualityPanel sweeps the fixed panel at the given worker count.
func runQualityPanel(workers int) ([]*sweepResult, error) {
	panel, err := qualityPanel()
	if err != nil {
		return nil, err
	}
	sys := ml4all.NewSystem()
	sys.Workers = workers
	var out []*sweepResult
	for _, ds := range panel {
		s, err := sweep(sys, ds, gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: panelTolerance, MaxIter: panelMaxIter}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
