package gd

import (
	"fmt"

	"ml4all/internal/data"
	"ml4all/internal/gradients"
	"ml4all/internal/linalg"
)

// The seven operators of the paper's Section 4. Each mirrors the formal
// signature given there; costs are charged by the engine, not here.

// Transformer is operator (1), Transform(U) -> UT: it parses one raw data
// unit into a typed row.
//
// Eager-vs-lazy is a costing decision only: the engine runs a custom
// Transformer once over every raw unit when the trainer starts, and again
// when it resumes from a checkpoint, and every pass reads the resulting
// arena. So Transform must be a deterministic function of raw that ignores
// whatever in ctx changes during a run, and all rows of one dataset must
// share a layout (all sparse, or all dense of one width) — a mix fails the
// build of the arena, at NewTrainer, as does any Transform error.
//
// Like Compute, Transform runs on the engine's worker pool (the units fan out
// over shards), so with engine Workers != 1 a Transformer must be safe for
// concurrent calls and must not mutate shared state or ctx — parse the line,
// return the unit. Stateful transformers are only legal on the serial path
// (Workers: 1).
type Transformer interface {
	Transform(raw string, ctx *Context) (data.Row, error)
}

// Stager is operator (2), Stage: it initializes the algorithm's global
// variables. It may inspect a (possibly empty) list of sample units, matching
// Stage(∅ | UT | list<UT>).
type Stager interface {
	Stage(sample []data.Row, ctx *Context) error
}

// Computer is operator (3), Compute(UT) -> UC: the core per-unit computation.
// Contributions accumulate into acc, whose aggregation across units/partitions
// is the UC handed to Update ("UC is the sum of all data units"). AccDim
// returns the accumulator dimensionality (d for plain gradients; variants
// like line search use d+1). Ops estimates multiply-adds per unit with nnz
// stored values for cost charging; it must be a pure function of nnz (the
// engine caches per-partition Ops sums across iterations).
//
// Concurrency contract (enforced by the engine): the engine runs Compute on a
// worker pool, many goroutines at once, each with its own acc buffer. A
// Computer therefore must
//
//   - treat ctx as read-only for the whole compute phase (the engine checks a
//     context guard after every pass and fails the run on a violation);
//   - write only to acc — no shared mutable state, no fields mutated by
//     Compute;
//   - be deterministic given (u, ctx).
//
// The stock Computers (GradientComputer, SVRGComputer, LineSearchComputer)
// all satisfy this: they read ctx.Weights and context vectors set before the
// pass and accumulate into acc only.
type Computer interface {
	Compute(u data.Row, ctx *Context, acc linalg.Vector)
	AccDim(d int) int
	Ops(nnz int) float64
}

// Updater is operator (4), Update(UC) -> UU: it folds the aggregated
// accumulator into the global variables and returns the new weights. The
// accumulator is engine-owned scratch reused across iterations: an Updater
// must not retain acc (or a sub-slice of it) past the call — clone whatever
// it keeps, as the stock implementations do. On return ctx.Weights must be
// the vector Update returns: the engine reads the weights the context held on
// entry as the previous iterate Converge compares against.
type Updater interface {
	Update(acc linalg.Vector, ctx *Context) (linalg.Vector, error)
}

// Converger is operator (6), Converge(UU) -> UΔ: it produces the convergence
// delta from the new and previous weights.
type Converger interface {
	Converge(wNew, wPrev linalg.Vector, ctx *Context) float64
}

// Looper is operator (7), Loop(UΔ) -> true|false: it decides whether to keep
// iterating.
type Looper interface {
	Loop(delta float64, ctx *Context) bool
}

// Operator (5), Sample, is defined in package sampling; plans reference it by
// strategy kind so the planner can cost the alternatives of Section 6.

// --- Reference implementations ("the provided gradient functions") ---

// FormatTransformer parses raw lines in the given input format (the paper's
// Listing 1 equivalent).
type FormatTransformer struct{ Format data.Format }

// Transform implements Transformer.
func (t FormatTransformer) Transform(raw string, _ *Context) (data.Row, error) {
	r, ok, err := t.Format.ParseLine(raw)
	if err == nil && !ok {
		err = fmt.Errorf("gd: blank data unit")
	}
	return r, err
}

// ZeroStager is the paper's Listing 4: weights to zero, step to its initial
// value, iteration counter to zero.
type ZeroStager struct{}

// Stage implements Stager.
func (ZeroStager) Stage(_ []data.Row, ctx *Context) error {
	ctx.Weights = linalg.NewVector(ctx.NumFeatures)
	ctx.Iter = 0
	return nil
}

// SampleMeanStager initializes the weights from the mean of a staged sample
// of data units instead of zero (the Figure 3(b) variant where "Stage uses a
// sample"). It falls back to zeros without a sample.
type SampleMeanStager struct{ Scale float64 }

// Stage implements Stager.
func (s SampleMeanStager) Stage(sample []data.Row, ctx *Context) error {
	w := linalg.NewVector(ctx.NumFeatures)
	if len(sample) > 0 {
		for _, u := range sample {
			u.AddScaledInto(w, s.Scale/float64(len(sample)))
		}
	}
	ctx.Weights = w
	ctx.Iter = 0
	return nil
}

// GradientComputer is the paper's Listing 2: per-unit gradient of the chosen
// loss, summed by the engine.
type GradientComputer struct{ Gradient gradients.Gradient }

// Compute implements Computer.
func (c GradientComputer) Compute(u data.Row, ctx *Context, acc linalg.Vector) {
	c.Gradient.AddGradient(ctx.Weights, u, acc)
}

// AccDim implements Computer.
func (GradientComputer) AccDim(d int) int { return d }

// Ops implements Computer.
func (c GradientComputer) Ops(nnz int) float64 { return c.Gradient.Ops(nnz) }

// GradientUpdater is the paper's Listing 3: w := w - step * mean(grad), with
// an optional L2 regularizer folded in. The engine hands it the summed
// accumulator; Count carries the batch size used to take the mean so the step
// scale is batch-size independent (the convention MLlib uses and the paper
// adopts by fixing identical step sizes across algorithms).
type GradientUpdater struct {
	Reg gradients.L2
}

// Update implements Updater. The loop is the fused single-pass form of
// grad := acc/n; grad += λw; w -= step*grad — identical operations on each
// component in the same order, one allocation instead of two clones.
func (up GradientUpdater) Update(acc linalg.Vector, ctx *Context) (linalg.Vector, error) {
	n := ctx.BatchSize
	if n <= 0 {
		return nil, fmt.Errorf("gd: GradientUpdater with batch size %d", n)
	}
	inv := 1 / float64(n)
	old := ctx.Weights
	w := ctx.TakeSpare(len(old))
	for i := range w {
		g := acc[i] * inv
		if up.Reg.Lambda != 0 {
			g += up.Reg.Lambda * old[i]
		}
		w[i] = old[i] + (-ctx.Step)*g
	}
	ctx.Weights = w
	return w, nil
}

// L1Converger is the paper's Listing 5: the L1 norm of the difference between
// successive weight vectors.
type L1Converger struct{}

// Converge implements Converger.
func (L1Converger) Converge(wNew, wPrev linalg.Vector, _ *Context) float64 {
	return wNew.DistL1(wPrev)
}

// L2Converger uses the Euclidean distance between successive weight vectors
// ("it might compute the L2-norm of the difference of the weights").
type L2Converger struct{}

// Converge implements Converger.
func (L2Converger) Converge(wNew, wPrev linalg.Vector, _ *Context) float64 {
	return wNew.DistL2(wPrev)
}

// ToleranceLooper is the paper's Listing 6 combined with the max-iterations
// constraint of the declarative language: continue while delta >= tolerance
// and the iteration cap is not reached.
type ToleranceLooper struct{}

// Loop implements Looper.
func (ToleranceLooper) Loop(delta float64, ctx *Context) bool {
	if ctx.MaxIter > 0 && ctx.Iter >= ctx.MaxIter {
		return false
	}
	return delta >= ctx.Tolerance
}

// FixedIterLooper runs for exactly MaxIter iterations regardless of delta
// (the Figure 3(a) example loops i < 100; Figure 7(a) fixes 1000 iterations).
type FixedIterLooper struct{}

// Loop implements Looper.
func (FixedIterLooper) Loop(_ float64, ctx *Context) bool {
	return ctx.Iter < ctx.MaxIter
}
