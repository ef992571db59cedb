package ml4all

import (
	"errors"
	"fmt"
	"slices"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/lang"
	"ml4all/internal/metrics"
	"ml4all/internal/obs"
	"ml4all/internal/planner"
	"ml4all/internal/storage"
)

// This file exports the hooks the online serving subsystem (internal/serve)
// drives: a resumable, cancellable training-job handle over one declarative
// run statement, and a predict-on-rows API for trained models. The job path
// is the same code Exec's run statements execute through (runQuery is a loop
// over an open TrainJob), so a job driven to completion by the server is
// bit-identical to the offline Train path — same plan choice, same weights,
// same simulated clock.

// JobOptions tune how an opened TrainJob executes.
type JobOptions struct {
	// Observer, when non-nil, receives per-iteration telemetry
	// (engine.Options.Observer). nil keeps the engine's zero-overhead path;
	// observed and unobserved runs are bit-identical.
	Observer engine.Observer

	// Trace, when non-nil, collects named spans around the job's phases:
	// OpenJob/ResumeJob record an "optimize" span over the cost-based
	// optimizer with one "speculate" child per speculated algorithm. The
	// serving layer adds its own train/checkpoint/recover spans on the same
	// trace. nil records nothing.
	Trace *obs.Trace
}

// TrainJob is a resumable handle on one declarative training statement: the
// statement is bound and costed up front (the cost-based optimizer picks the
// plan), then the caller drives the plan one iteration at a time with Step,
// checkpointing, cancelling, or inspecting progress between iterations. An
// `adaptive` statement's job also holds the re-optimization controller, which
// may replace the trainer (and so the plan) between two Steps.
type TrainJob struct {
	name    string // the statement's assigned query name, possibly empty
	ds      *data.Dataset
	sim     *cluster.Sim
	store   *storage.Store
	dec     *Decision
	trainer *engine.Trainer
	ctl     *planner.Controller // nil: static, the optimizer's plan runs to the end
}

// OpenJob binds a parsed run statement to the system's catalogs, runs the
// cost-based optimizer over the eleven-plan space (narrowed by any using
// directives, gated by any time constraint) and returns a TrainJob positioned
// before its first iteration.
func (s *System) OpenJob(q *lang.Run, jo JobOptions) (*TrainJob, error) {
	j, pn, err := s.costJob(q, jo)
	if err != nil {
		return nil, err
	}
	choice, err := applyUsing(j.dec, q, pn)
	if err != nil {
		return nil, err
	}
	if q.Time > 0 {
		budget := Seconds(q.Time.Seconds())
		if choice.Cost > budget {
			return nil, fmt.Errorf(
				"ml4all: cannot satisfy time constraint %s: best plan %s needs an estimated %.1fs; revisit the time constraint",
				q.Time, choice.Plan.Name(), float64(choice.Cost))
		}
	}
	j.trainer, err = engine.NewTrainer(j.sim, j.store, &choice.Plan, s.engineOptions(q.FastMath, jo.Observer))
	if err != nil {
		return nil, err
	}
	return j, nil
}

// ResumeJob reopens a job from a checkpoint taken by TrainJob.Checkpoint: the
// statement is re-bound and re-costed exactly as OpenJob does (the optimizer
// is deterministic, so this reproduces the original plan space), the
// checkpointed plan is looked up in the ranked space by name, and the trainer
// is restored to the snapshot — clock, RNG position, weights and all — so the
// resumed run is bit-identical to one that was never stopped; an adaptive
// job's controller state (TrainState.Policy) is validated, then adopted. The
// statement and the system configuration must be the ones the checkpoint was
// taken under, which is why the serving layer persists the job's script next
// to its checkpoint.
func (s *System) ResumeJob(q *lang.Run, state []byte, jo JobOptions) (*TrainJob, error) {
	st, err := engine.DecodeTrainState(state)
	if err != nil {
		return nil, err
	}
	j, _, err := s.costJob(q, jo)
	if err != nil {
		return nil, err
	}
	const changed = "script or configuration changed since the checkpoint"
	i := slices.IndexFunc(j.dec.Ranked, func(c planner.Choice) bool { return c.Plan.Name() == st.PlanName })
	if i < 0 {
		return nil, fmt.Errorf("ml4all: checkpoint plan %s not in the statement's plan space — %s", st.PlanName, changed)
	}
	plan := j.dec.Ranked[i].Plan
	j.trainer, err = engine.Resume(j.sim, j.store, &plan, s.engineOptions(q.FastMath, jo.Observer), st)
	if err != nil {
		return nil, err
	}
	if j.ctl != nil {
		err = j.ctl.Restore(st.Policy, j.trainer) // an empty policy does not decode
	} else if len(st.Policy) > 0 {
		err = errors.New("a static statement's checkpoint carries controller state")
	}
	if err != nil {
		return nil, fmt.Errorf("ml4all: %w — %s", err, changed)
	}
	return j, nil
}

// costJob performs the shared front half of OpenJob and ResumeJob: resolve
// the data source, bind parameters and the using pin, and open the job on
// them. An adaptive statement's controller owns plan selection for the whole
// run, so using directives that pin the plan and time constraints (a gate on
// one static estimate) are rejected.
func (s *System) costJob(q *lang.Run, jo JobOptions) (*TrainJob, pin, error) {
	if len(q.Sources) == 0 {
		return nil, pin{}, fmt.Errorf("ml4all: run without a data source")
	}
	if q.Adaptive && (q.Algorithm != "" || q.Sampler != "" || q.Time > 0) {
		return nil, pin{}, fmt.Errorf("ml4all: adaptive cannot be combined with using algorithm/sampler or a time constraint — the controller picks plans at runtime")
	}
	ds, err := s.resolveSource(q)
	if err != nil {
		return nil, pin{}, err
	}
	if ds.N() == 0 {
		// Caught here, the error names the file; later it would name the
		// speculation sample the optimizer drew from it.
		return nil, pin{}, fmt.Errorf("ml4all: %s: no records", q.Sources[0].Path)
	}
	p, pn, err := bindParams(q, ds)
	if err != nil {
		return nil, pin{}, err
	}
	var adaptive *AdaptiveConfig
	if q.Adaptive {
		adaptive = &AdaptiveConfig{}
	}
	j, err := s.open(ds, p, q.FastMath, adaptive, jo.Trace)
	if err != nil {
		return nil, pin{}, err
	}
	j.name = q.Result
	return j, pn, nil
}

// open lays ds out and runs the cost-based optimizer on a fresh simulated
// timeline: the front half of every optimize-then-train path (Optimize,
// Train, TrainAdaptive, OpenJob, ResumeJob). fastMath prices the plans at the
// fast kernel tier; a non-nil adaptive attaches the re-optimization
// controller; a non-nil trace records an "optimize" span with one
// "speculate" child per speculated algorithm. The job has no trainer yet.
func (s *System) open(ds *data.Dataset, p Params, fastMath bool, adaptive *AdaptiveConfig, trace *obs.Trace) (*TrainJob, error) {
	sim := cluster.New(s.Cluster)
	st, err := storage.Build(ds, s.Layout)
	if err != nil {
		return nil, err
	}
	popts := planner.Options{Estimator: s.estimatorConfig(), FastMath: fastMath}
	optimize := -1
	if trace != nil {
		optimize = trace.Start("optimize", -1)
		popts.Span = func(name string) func() {
			id := trace.Start(name, optimize)
			return func() { trace.End(id) }
		}
	}
	dec, err := planner.Choose(sim, st, p, popts)
	trace.End(optimize)
	if err != nil {
		return nil, err
	}
	j := &TrainJob{ds: ds, sim: sim, store: st, dec: dec}
	if adaptive != nil {
		j.ctl = planner.NewController(sim, st, p, dec, fastMath, *adaptive)
	}
	return j, nil
}

// Step executes exactly one plan iteration: engine.Trainer.Step, or the
// controller's, which may hand back a successor trainer on another plan.
func (j *TrainJob) Step() (err error) {
	if j.ctl == nil {
		return j.trainer.Step()
	}
	j.trainer, err = j.ctl.Step(j.trainer)
	return err
}

// run steps the job until Done.
func (j *TrainJob) run() error {
	for !j.Done() {
		if err := j.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Done reports whether the run has terminated.
func (j *TrainJob) Done() bool { return j.trainer.Done() }

// Iteration returns the number of iterations executed so far.
func (j *TrainJob) Iteration() int { return j.trainer.Iteration() }

// PlanName names the physical plan the optimizer chose for this job; for an
// adaptive job, the chain of plans executed so far ("MGD-eager-shuffle→BGD").
func (j *TrainJob) PlanName() string {
	if j.ctl != nil {
		return j.ctl.PlanName()
	}
	return j.trainer.Plan().Name()
}

// Decision returns the optimizer's costed choice the job was opened under:
// the full ranked plan space and the per-algorithm estimates.
func (j *TrainJob) Decision() *Decision { return j.dec }

// Controller returns the job's mid-flight re-optimization controller — its
// history is the run's refit and switch record — or nil for a static job.
func (j *TrainJob) Controller() *planner.Controller { return j.ctl }

// Deltas returns the per-iteration convergence deltas observed so far
// (live; callers must not modify — see engine.Trainer.Deltas).
func (j *TrainJob) Deltas() []float64 { return j.trainer.Deltas() }

// Tolerance returns the running plan's convergence tolerance εd, the target
// the live-progress ETA projects down to.
func (j *TrainJob) Tolerance() float64 { return j.trainer.Plan().Tolerance }

// Dataset returns the dataset the job trains on.
func (j *TrainJob) Dataset() *data.Dataset { return j.ds }

// Checkpoint serializes the job's full training state (engine.TrainState,
// gob-encoded, any controller's inside it): everything a fresh process needs
// to ResumeJob bit-identically.
func (j *TrainJob) Checkpoint() ([]byte, error) {
	st, err := j.trainer.Checkpoint()
	if err == nil && j.ctl != nil {
		st.Policy, err = j.ctl.Encode()
	}
	if err != nil {
		return nil, err
	}
	return st.Encode()
}

// Result returns the job's outcome as of the current state: the trainer's
// Result (weights, iterations, stop reason, delta history), with PlanName the
// job's plan chain and Time the job's full simulated clock, speculation
// overhead included, as Train counts it. Deltas is the trainer's live
// history: callers must not modify it.
func (j *TrainJob) Result() *Result {
	res := *j.trainer.Finish()
	res.PlanName = j.PlanName()
	res.Time = j.sim.Now()
	return &res
}

// Model assembles the trained model as of the current state, from Result.
// Name is the statement's assigned query name, possibly empty — callers
// (runQuery, the model registry) apply their own naming.
func (j *TrainJob) Model() *Model {
	res := j.Result()
	return &Model{
		Name:       j.name,
		Task:       j.ds.Task,
		Weights:    res.Weights,
		PlanName:   res.PlanName,
		Iterations: res.Iterations,
		TrainTime:  res.Time,
		Converged:  res.Converged,
	}
}

// ScoreMatrix computes the raw margin <row, weights> for every row of mat
// through the blocked margin kernels — the predict-on-rows hook the serving
// layer's prediction service evaluates requests with. It validates the
// request's dimensionality up front: sparse rows must not index at or beyond
// the model dimension, dense rows must match it exactly.
func (m *Model) ScoreMatrix(mat *data.Matrix) ([]float64, error) {
	if err := m.checkDims(mat); err != nil {
		return nil, err
	}
	out := make([]float64, mat.NumRows())
	metrics.ScoresInto(m.Weights, mat, out)
	return out, nil
}

// checkDims validates that every row of mat fits the model's dimension.
func (m *Model) checkDims(mat *data.Matrix) error {
	d := len(m.Weights)
	if mat.IsDense() && mat.NumRows() > 0 && mat.Stride() != d {
		return fmt.Errorf("ml4all: dense rows have %d features, model %q has %d", mat.Stride(), m.Name, d)
	}
	if !mat.IsDense() && mat.MaxIndex() >= d {
		return fmt.Errorf("ml4all: row references feature %d, model %q has %d", mat.MaxIndex(), m.Name, d)
	}
	return nil
}
