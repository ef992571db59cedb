package engine

import (
	"fmt"
	"math/rand"
	"runtime"

	"ml4all/internal/cluster"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/sampling"
	"ml4all/internal/storage"
)

// Trainer is the resumable form of a plan execution: an explicit lifecycle
//
//	New → Step* → (Checkpoint → Resume → Step* | Switch → Step*)* → Finish
//
// where NewTrainer performs everything up to the first iteration (job init,
// Stage, Transform, sampler construction), each Step executes exactly
// one plan iteration, and Finish assembles the Result. Run is a thin loop
// over Step, so a Trainer driven to completion is bit-identical to the
// monolithic loop it replaced — same weights, deltas, simulated time and
// accounting for every plan and worker count.
//
// All per-run state lives either in the simulator (clock, cache, jitter
// stream, accounting — captured by cluster.Sim.Snapshot) or in the fields
// Checkpoint serializes into a TrainState: weights and operator context
// variables, the iteration counter, the sampling RNG position (a draw count
// over a seeded stream), the per-partition op-cost cache, the delta history
// and the clock offset the run started at. The transformed data is not state:
// it is the dataset's arena, or a custom Transformer's output rebuilt from
// the raw units on Resume.
type Trainer struct {
	sim   *cluster.Sim
	store *storage.Store
	plan  *gd.Plan
	opts  Options

	ex    executor
	src   *cluster.CountingSource // the sampling RNG's underlying stream
	res   *Result
	start cluster.Seconds // sim clock when the run began (carried across Switch)
	done  bool

	// fused is the plan's Updater when Update, Converge and the finite check
	// run as one pass over the model (a gd.FusedUpdater paired with a
	// gd.NormConverger of norm); nil runs them operator by operator.
	fused gd.FusedUpdater
	norm  gd.DeltaNorm

	// Converge's previous iterate is the vector the context held before
	// Update, not a copy — unless the last Update handed that very vector
	// back (it may write it in place): copyPrev then has Step copy it into
	// prev first. Set at start, when no Update has been seen yet.
	prev     linalg.Vector
	copyPrev bool
}

// NewTrainer validates the plan and performs the pre-loop phases on sim:
// job init, Stage, Transform (a custom Transformer runs over every unit here,
// so its errors surface now; only an eager plan is charged for it now), and
// sampler construction. The returned Trainer is ready for Step.
func NewTrainer(sim *cluster.Sim, store *storage.Store, plan *gd.Plan, opts Options) (*Trainer, error) {
	return startTrainer(sim, store, plan, opts, nil)
}

// Switch stands plan up from where t is, mid-run: everything NewTrainer does
// (and charges the simulator), with the weights, the iteration counter (so
// step-size schedules continue instead of restarting hot), the delta history
// and the start clock carried over; the rest of the operator context is what
// the successor's own Stage produced. It returns a new Trainer rather than
// re-planning t in place because the executor's worker-pool closure captures
// the executor's address; after a successful Switch t must not be used again.
// A failed Switch leaves t as it was, but for the simulated time charged.
func (t *Trainer) Switch(plan *gd.Plan) (*Trainer, error) {
	if t.done {
		return nil, fmt.Errorf("engine: Switch on a finished trainer (plan %s)", t.plan.Name())
	}
	return startTrainer(t.sim, t.store, plan, t.opts, t)
}

// startTrainer is NewTrainer, or with from the trainer switched away from.
func startTrainer(sim *cluster.Sim, store *storage.Store, plan *gd.Plan, opts Options, from *Trainer) (*Trainer, error) {
	t, err := newTrainerShell(sim, store, plan, opts)
	if err != nil {
		return nil, err
	}
	sim.JobInit()
	if err := t.ex.stage(); err != nil {
		return nil, err
	}
	if from != nil {
		t.ex.ctx.Weights = from.ex.ctx.Weights.Clone()
		t.ex.ctx.Iter = from.ex.ctx.Iter
	}
	if err := t.ex.materialize(); err != nil {
		return nil, err
	}
	if plan.Transform == gd.Eager {
		t.ex.eagerTransform()
	}
	if err := t.initSampler(); err != nil {
		return nil, err
	}
	t.res = &Result{Deltas: make([]float64, 0, 16)}
	if from != nil {
		t.start, t.res = from.start, from.res
	}
	t.res.PlanName = plan.Name()
	return t, nil
}

// newTrainerShell builds the trainer and executor skeleton shared by
// NewTrainer and Resume: defaults, context, shards, the dataset's arena when
// the transformer is the stock one — everything that involves no simulated
// work and runs no UDF.
func newTrainerShell(sim *cluster.Sim, store *storage.Store, plan *gd.Plan, opts Options) (*Trainer, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	ds := store.Dataset
	n := ds.N()
	if n == 0 {
		return nil, fmt.Errorf("engine: empty dataset %q", ds.Name)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ctx := gd.NewContext()
	ctx.NumFeatures = ds.NumFeatures
	ctx.NumPoints = n
	ctx.Tolerance = plan.Tolerance
	ctx.MaxIter = plan.MaxIter
	ctx.BatchSize = plan.BatchSize
	ctx.FastMath = opts.FastMath
	if plan.Sampling == gd.NoSampling {
		ctx.BatchSize = n
	}

	t := &Trainer{
		sim: sim, store: store, plan: plan, opts: opts,
		start:    sim.Now(),
		copyPrev: true,
	}
	t.ex = executor{
		sim: sim, store: store, plan: plan, ctx: ctx,
		seed:      seed,
		workers:   workers,
		shards:    store.Shards(shardUnitTarget),
		blockSize: blockSize,
		costBuf:   make([]cluster.Seconds, 0, store.NumPartitions()),
	}
	if t.ex.stockTransformer() {
		t.ex.mat = ds.Mat
	}
	// Resolve the compute tier once: gd.KernelTier alone decides how a pass
	// is billed, and gd.Batched gives every Computer the one block loop.
	t.ex.tier = gd.KernelTier(plan.Computer, opts.FastMath)
	t.ex.batch = gd.Batched(plan.Computer)
	t.ex.computeFn = t.ex.computeSpan
	// Same for the fused driver step.
	if fu, ok := plan.Updater.(gd.FusedUpdater); ok {
		if nc, ok := plan.Converger.(gd.NormConverger); ok {
			t.fused, t.norm = fu, nc.DeltaNorm()
		}
	}
	return t, nil
}

// initSampler constructs the plan's sampler and, with it, the trainer's
// sampling RNG stream (plans without a Sample operator never create one, so
// their checkpoints record zero draws exactly as before).
func (t *Trainer) initSampler() error {
	if t.plan.Sampling == gd.NoSampling {
		return nil
	}
	s, err := sampling.New(t.plan.Sampling)
	if err != nil {
		return err
	}
	t.src = cluster.NewCountingSource(t.ex.seed)
	t.ex.rng = rand.New(t.src)
	t.ex.sampler = s
	t.ex.senv = &sampling.Env{Sim: t.sim, Store: t.store, RNG: t.ex.rng}
	return nil
}

// rngDraws returns the sampling-stream position, zero when the plan has no
// Sample operator (the stream is created with the sampler).
func (t *Trainer) rngDraws() uint64 {
	if t.src == nil {
		return 0
	}
	return t.src.Draws()
}

// Done reports whether the run has terminated (converged, budget exhausted,
// iteration cap hit, or diverged).
func (t *Trainer) Done() bool { return t.done }

// Iteration returns the 1-based count of iterations executed so far (the
// context's counter, carried across Switch).
func (t *Trainer) Iteration() int { return t.ex.ctx.Iter }

// Plan returns the plan the trainer executes (live; callers must not modify).
func (t *Trainer) Plan() *gd.Plan { return t.plan }

// Deltas returns the per-iteration convergence deltas observed so far. The
// slice is live — callers must not modify it.
func (t *Trainer) Deltas() []float64 { return t.res.Deltas }

// Weights returns the current model vector (live; callers must not modify).
func (t *Trainer) Weights() linalg.Vector { return t.ex.ctx.Weights }

// Step executes exactly one plan iteration: Sample (optional) + Transform
// (if lazy) + Compute fan-out, then Update, Converge and Loop on the driver,
// charging simulated costs in the same fixed order the monolithic loop did.
// After a terminating iteration, Done reports true and further Steps fail.
func (t *Trainer) Step() error {
	if t.done {
		return fmt.Errorf("engine: Step on a finished trainer (plan %s)", t.plan.Name())
	}
	sim, plan, ctx, res := t.sim, t.plan, t.ex.ctx, t.res

	ctx.Iter++
	ctx.Step = plan.Step.Alpha(ctx.Iter)
	sim.Advance(sim.Cfg.DriverIterSec)

	acc, err := t.ex.iteration()
	if err != nil {
		return err
	}

	// Update, then Converge + Loop, on the driver — charged in that order
	// whether they run fused or operator by operator.
	sim.RunLocal(sim.CostCPU(cluster.RowTier, 1, float64(2*ctx.NumFeatures)))
	wOld := ctx.Weights
	var (
		wNew   linalg.Vector
		delta  float64
		finite bool
	)
	if t.fused != nil {
		if wNew, delta, finite, err = t.fused.UpdateConverge(acc, ctx, t.norm); err != nil {
			return err
		}
		t.ex.accZero = len(acc) == len(wNew) // consumed: zeroed as it was read
		sim.RunLocal(sim.CostCPU(cluster.RowTier, 1, float64(ctx.NumFeatures)))
	} else {
		wPrev := wOld
		if t.copyPrev {
			t.prev = append(t.prev[:0], wOld...)
			wPrev = t.prev
		}
		if wNew, err = plan.Updater.Update(acc, ctx); err != nil {
			return err
		}
		sim.RunLocal(sim.CostCPU(cluster.RowTier, 1, float64(ctx.NumFeatures)))
		delta = plan.Converger.Converge(wNew, wPrev, ctx)
		finite = wNew.IsFinite()
	}
	res.Deltas = append(res.Deltas, delta)
	res.FinalDelta = delta
	t.copyPrev = len(wOld) > 0 && len(wNew) > 0 && &wOld[0] == &wNew[0]
	if !t.copyPrev {
		// The replaced weights vector is dead once the delta is taken
		// (operators keep clones, per the Checkpoint contract); recycle it
		// for the next update.
		ctx.PutSpare(wOld)
	}

	switch {
	case !finite:
		res.Diverged = true
		t.done = true
	case !plan.Looper.Loop(delta, ctx):
		res.Converged = delta < plan.Tolerance
		t.done = true
	case t.opts.TimeBudget > 0 && sim.Now()-t.start >= t.opts.TimeBudget:
		res.Budgeted = true
		t.done = true
	}
	if t.opts.Observer != nil {
		t.opts.Observer.ObserveIter(IterEvent{
			Iter:       ctx.Iter,
			Delta:      delta,
			SimSeconds: float64(sim.Now()),
			Units:      sim.Acct.UnitsSeen,
		})
	}
	return nil
}

// Finish assembles and returns the Result as of the current state: final
// weights, iteration count, elapsed simulated time since the trainer
// started, and the simulator's accounting. It may be called mid-run (for
// progress inspection) or after Done; the Trainer remains usable.
func (t *Trainer) Finish() *Result {
	res := t.res
	res.Weights = t.ex.ctx.Weights.Clone()
	res.Iterations = t.ex.ctx.Iter
	res.Time = t.sim.Now() - t.start
	res.Acct = t.sim.Acct
	return res
}
