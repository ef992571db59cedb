package gd

import (
	"fmt"

	"ml4all/internal/data"
	"ml4all/internal/gradients"
	"ml4all/internal/linalg"
)

// SVRG (stochastic variance reduced gradient, Johnson & Zhang NIPS'13) mixes
// BGD with SGD: every m-th iteration recomputes the full-batch gradient at a
// snapshot w̃ and the iterations in between take variance-corrected
// single-point steps. The paper's Appendix C shows it fits the abstraction by
// "flattening" the nested loops with an if-else in Sample, Compute and
// Update; that is exactly what the operators below do, keyed off
// Context.Iter and the plan's UpdateFrequency.

// Context variable keys used by the SVRG operators.
const (
	svrgMuKey  = "svrg.mu"         // μ: full gradient at the snapshot
	svrgBarKey = "svrg.weightsBar" // w̃: snapshot weights
)

// svrgFullIteration reports whether (1-based) iteration t is a full-batch
// snapshot iteration: (t mod m) - 1 == 0 in the paper's Algorithm 2. The
// engine asks through Plan.FullPass, so operators and engine agree.
func svrgFullIteration(t, m int) bool { return t%m == 1 || m == 1 }

// SVRGComputer is the Appendix C Compute (Listing 8): on snapshot iterations
// it emits the plain gradient at w; on stochastic iterations it emits the
// pair (∇f_i(w), ∇f_i(w̃)) packed into the two halves of the accumulator.
type SVRGComputer struct {
	Gradient gradients.Gradient
	M        int
}

// Compute implements Computer.
func (c SVRGComputer) Compute(u data.Row, ctx *Context, acc linalg.Vector) {
	d := ctx.NumFeatures
	if svrgFullIteration(ctx.Iter, c.M) {
		c.Gradient.AddGradient(ctx.Weights, u, acc[:d])
		return
	}
	c.Gradient.AddGradient(ctx.Weights, u, acc[:d])
	wBar, err := ctx.GetVector(svrgBarKey)
	if err != nil {
		// Stage always sets the snapshot; a missing one is a programming
		// error in a custom operator wiring, surfaced loudly.
		panic(err)
	}
	c.Gradient.AddGradient(wBar, u, acc[d:])
}

// AccDim implements Computer: two gradient slots.
func (SVRGComputer) AccDim(d int) int { return 2 * d }

// Ops implements Computer (two gradient evaluations in the worst case).
func (c SVRGComputer) Ops(nnz int) float64 { return 2 * c.Gradient.Ops(nnz) }

// SVRGUpdater applies Algorithm 2's two update rules.
type SVRGUpdater struct {
	Reg gradients.L2
	M   int
}

// Update implements Updater.
func (up SVRGUpdater) Update(acc linalg.Vector, ctx *Context) (linalg.Vector, error) {
	d := ctx.NumFeatures
	if svrgFullIteration(ctx.Iter, up.M) {
		// Snapshot: w̃ := w; μ := mean gradient at w̃; w := w - α μ.
		mu := acc[:d].Clone()
		if n := ctx.NumPoints; n > 0 {
			mu.Scale(1 / float64(n))
		}
		up.Reg.AddGradient(ctx.Weights, mu)
		ctx.Put(svrgBarKey, ctx.Weights.Clone())
		ctx.Put(svrgMuKey, mu)
		w := ctx.Weights.Clone()
		w.AddScaled(-ctx.Step, mu)
		ctx.Weights = w
		return w, nil
	}
	mu, err := ctx.GetVector(svrgMuKey)
	if err != nil {
		return nil, fmt.Errorf("gd: SVRG update before first snapshot: %w", err)
	}
	// w := w - α (∇f_i(w) - ∇f_i(w̃) + μ)
	dir := acc[:d].Clone()
	dir.Sub(acc[d:])
	dir.Add(mu)
	up.Reg.AddGradient(ctx.Weights, dir)
	w := ctx.Weights.Clone()
	w.AddScaled(-ctx.Step, dir)
	ctx.Weights = w
	return w, nil
}

// svrgStager seeds the snapshot so the first stochastic iteration (when
// m == 1 never happens) has a w̃ even before the first full pass.
type svrgStager struct{}

// Stage implements Stager.
func (svrgStager) Stage(_ []data.Row, ctx *Context) error {
	ctx.Weights = linalg.NewVector(ctx.NumFeatures)
	ctx.Iter = 0
	ctx.Put(svrgBarKey, ctx.Weights.Clone())
	ctx.Put(svrgMuKey, linalg.NewVector(ctx.NumFeatures))
	return nil
}

// NewSVRG builds an SVRG plan. updateFrequency m <= 0 defaults to 2n/b-style
// heuristic of the original paper collapsed to a simple 10 (tests and benches
// pass it explicitly). The plan samples one point per stochastic iteration
// with shuffled-partition sampling; snapshot iterations sweep the full
// dataset.
func NewSVRG(p Params, updateFrequency int) Plan {
	p = p.withDefaults()
	if updateFrequency <= 0 {
		updateFrequency = 10
	}
	plan := p.base(SVRG, Eager, ShuffledPartition, 1)
	plan.UpdateFrequency = updateFrequency
	plan.Stager = svrgStager{}
	plan.Computer = SVRGComputer{Gradient: p.Gradient, M: updateFrequency}
	plan.Updater = SVRGUpdater{Reg: gradients.L2{Lambda: p.Lambda}, M: updateFrequency}
	return plan
}
