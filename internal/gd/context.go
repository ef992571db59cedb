// Package gd implements the paper's gradient-descent abstraction (Section 4):
// seven operators — Transform, Stage, Compute, Update, Sample, Converge,
// Loop — that compose into GD plans, plus reference implementations covering
// BGD, SGD, MGD and the Appendix C variants (SVRG and backtracking line
// search). The operators are plain Go interfaces standing in for the paper's
// Java UDFs; expert users provide their own implementations exactly as the
// paper intends.
package gd

import (
	"fmt"

	"ml4all/internal/linalg"
)

// Context carries the global variables shared by the operators of a running
// plan — the equivalent of the paper's Context with getByKey/put. The hot
// variables (weights, step, iteration) are typed fields; everything else
// (SVRG's weightsBar, line search's bookkeeping, user extensions) lives in
// Vars.
type Context struct {
	// Weights is the current model vector w.
	Weights linalg.Vector

	// Step is the current step size alpha_i (refreshed each iteration from
	// the plan's step-size strategy; line search overwrites it).
	Step float64

	// Iter is the 1-based current iteration.
	Iter int

	// NumFeatures is the model dimensionality d.
	NumFeatures int

	// NumPoints is n, the dataset cardinality (Stage may use it; the
	// estimator's sample runs see the sample's n).
	NumPoints int

	// BatchSize is the sample size b of the running plan (n for BGD).
	BatchSize int

	// Tolerance is the requested convergence tolerance epsilon.
	Tolerance float64

	// MaxIter caps the iteration count.
	MaxIter int

	// FastMath selects the tolerance-bounded fast kernel tier
	// (engine.Options.FastMath): the stock batched computers dispatch to
	// gradients.FastGradient's AddGradientBlockFast when it is set and the
	// gradient implements it, and stay on the bit-exact kernels otherwise.
	// Per-row execution (custom UDFs, gathered batches) and loss sums are
	// always exact.
	FastMath bool

	// Vars holds algorithm-specific extension state.
	Vars map[string]any

	// spare recycles one dead weight vector between iterations (see
	// TakeSpare); engine-managed, never serialized.
	spare linalg.Vector
}

// TakeSpare returns a weight-sized scratch vector for the next weights value:
// the recycled vector from the previous iteration when one is available and
// correctly sized, or a fresh allocation. Contents are unspecified — callers
// must overwrite every element (the stock updaters do).
func (c *Context) TakeSpare(d int) linalg.Vector {
	if v := c.spare; len(v) == d {
		c.spare = nil
		return v
	}
	return linalg.NewVector(d)
}

// PutSpare offers a dead vector for recycling by the next TakeSpare. The
// engine calls it with the weights vector an Update replaced, once the
// trainer has finished reading it; operators that keep weight history across
// iterations must store clones (the Checkpoint contract already requires
// this), never the live ctx.Weights value.
func (c *Context) PutSpare(v linalg.Vector) { c.spare = v }

// NewContext returns a Context; the extension map is created on first Put.
func NewContext() *Context { return &Context{} }

// Get returns the extension variable under key, or nil.
func (c *Context) Get(key string) any { return c.Vars[key] }

// Put stores an extension variable.
func (c *Context) Put(key string, v any) {
	if c.Vars == nil {
		c.Vars = map[string]any{}
	}
	c.Vars[key] = v
}

// GetVector returns the named extension vector, or an error naming the key.
func (c *Context) GetVector(key string) (linalg.Vector, error) {
	v, ok := c.Vars[key].(linalg.Vector)
	if !ok {
		return nil, fmt.Errorf("gd: context variable %q is not a vector", key)
	}
	return v, nil
}

// Guard snapshots the context state a Computer must not touch during the
// compute phase (see the Computer concurrency contract). The engine captures
// one before each compute pass and checks it afterwards; a violation aborts
// the run instead of silently corrupting a parallel execution. The check is
// O(1) by design — it detects structural mutation (reassigned weights, new
// context variables, bumped counters), while data races on vector contents
// are the race detector's job in tests.
type Guard struct {
	weightsHead *float64
	weightsLen  int
	numVars     int
	iter        int
	step        float64
	batch       int
}

// Guard captures the current compute-phase invariants of c.
func (c *Context) Guard() Guard {
	g := Guard{
		weightsLen: len(c.Weights),
		numVars:    len(c.Vars),
		iter:       c.Iter,
		step:       c.Step,
		batch:      c.BatchSize,
	}
	if len(c.Weights) > 0 {
		g.weightsHead = &c.Weights[0]
	}
	return g
}

// Check reports the first contract violation a Computer committed against c
// since the guard was captured, or nil.
func (g Guard) Check(c *Context) error {
	var head *float64
	if len(c.Weights) > 0 {
		head = &c.Weights[0]
	}
	switch {
	case len(c.Weights) != g.weightsLen || head != g.weightsHead:
		return fmt.Errorf("gd: Computer violated the compute contract: ctx.Weights was reassigned during the compute phase")
	case len(c.Vars) != g.numVars:
		return fmt.Errorf("gd: Computer violated the compute contract: context variables changed during the compute phase (%d -> %d)", g.numVars, len(c.Vars))
	case c.Iter != g.iter || c.Step != g.step || c.BatchSize != g.batch:
		return fmt.Errorf("gd: Computer violated the compute contract: iteration state mutated during the compute phase")
	}
	return nil
}
