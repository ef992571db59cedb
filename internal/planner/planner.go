// Package planner is the optimizer's top: it enumerates the GD plan space of
// Section 6 (Figure 5: one BGD plan, five SGD plans, five MGD plans),
// obtains per-algorithm iteration estimates from the speculative estimator,
// prices every plan with the Section 7 cost model, and picks the cheapest.
// Like a database optimizer, its first duty is avoiding the worst plans.
package planner

import (
	"fmt"
	"slices"
	"sort"

	"ml4all/internal/cluster"
	"ml4all/internal/costmodel"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
)

// Space returns the eleven plans of Figure 5 for the given task parameters:
// BGD (eager, no sampling); SGD and MGD each with eager×{bernoulli, random,
// shuffle} and lazy×{random, shuffle} (lazy+bernoulli is discarded because
// Bernoulli scans everything anyway).
func Space(p gd.Params) []gd.Plan {
	plans := []gd.Plan{gd.NewBGD(p)}
	for _, algo := range []gd.Algo{gd.SGD, gd.MGD} {
		build := func(tp gd.TransformPlacement, sk gd.SamplingKind) gd.Plan {
			if algo == gd.SGD {
				return gd.NewSGD(p, tp, sk)
			}
			return gd.NewMGD(p, tp, sk)
		}
		plans = append(plans,
			build(gd.Eager, gd.Bernoulli),
			build(gd.Eager, gd.RandomPartition),
			build(gd.Eager, gd.ShuffledPartition),
			build(gd.Lazy, gd.RandomPartition),
			build(gd.Lazy, gd.ShuffledPartition),
		)
	}
	return plans
}

// Choice is one costed plan in the search result.
type Choice struct {
	Plan       gd.Plan
	Iterations int             // estimated T(εd) for the plan's algorithm, capped at MaxIter
	Cost       cluster.Seconds // estimated total training time
	// Satisfies reports whether the estimated iteration count fits within
	// the plan's MaxIter — i.e. whether the plan is expected to actually
	// reach the requested tolerance. Plans that cannot satisfy epsilon rank
	// after plans that can, regardless of cost: the user asked for a
	// tolerance, and a cheap plan that never reaches it is not a bargain.
	Satisfies bool
}

// Decision is the optimizer's output: the chosen plan, the full ranked
// search space and the speculation overhead that producing it cost.
type Decision struct {
	Best      Choice
	Ranked    []Choice // ascending by cost
	Estimates map[gd.Algo]estimator.Estimate
	SpecTime  cluster.Seconds // simulated time spent speculating
}

// Options tunes the optimizer.
type Options struct {
	Estimator estimator.Config
	// FastMath prices batched compute at the fast kernel tier's measured
	// throughput (costmodel.Model.FastMath) — set it when the chosen plan
	// will execute with engine.Options.FastMath, so the optimizer ranks the
	// eleven-plan space under the rates the run will actually see.
	FastMath bool
	// Span, when non-nil, brackets the optimizer's internal phases for
	// tracing: Choose calls Span(name) at a phase start and the returned
	// func at its end (currently one "speculate" span per speculated
	// algorithm). The algorithms speculate concurrently unless the
	// estimator's Workers is 1, so Span and the funcs it returns are called
	// from several goroutines at once and their spans overlap; the hook must
	// be safe for that. nil costs nothing. The hook is a plain closure
	// rather than an obs type so the planner stays import-free of the
	// observability layer.
	Span func(name string) func()
}

// Choose runs the full optimization: speculate, cost all eleven plans, return
// the cheapest. The speculation time is charged
// to sim's clock, so end-to-end measurements include the optimizer's own
// overhead exactly as Figure 8 does.
func Choose(sim *cluster.Sim, store *storage.Store, p gd.Params, opts Options) (*Decision, error) {
	plans := Space(p)
	dec := &Decision{Estimates: map[gd.Algo]estimator.Estimate{}}
	model := costmodel.New(store, sim.Cfg)
	model.FastMath = opts.FastMath

	// Speculate the first plan of each algorithm, in Space order, all at
	// once over one sample — only up to the first invalid plan, which ends
	// the walk below before any later algorithm is needed.
	var first []gd.Plan
	for _, plan := range plans {
		if plan.Validate() != nil {
			break
		}
		if !slices.ContainsFunc(first, func(f gd.Plan) bool { return f.Algorithm == plan.Algorithm }) {
			first = append(first, plan)
		}
	}
	ests, errs := estimator.SpeculateAll(first, store, opts.Estimator, opts.Span)

	// The walk takes the estimates in the order the plans need them, which
	// is first's order, so errors, Estimates and SpecTime's sum come out as a
	// one-at-a-time speculation gives them.
	next := 0
	for _, plan := range plans {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		est, ok := dec.Estimates[plan.Algorithm]
		if !ok {
			if errs[next] != nil {
				return nil, fmt.Errorf("planner: estimating %s: %w", plan.Name(), errs[next])
			}
			est = ests[next]
			next++
			dec.Estimates[plan.Algorithm] = est
			dec.SpecTime += est.SpecTime
		}
		t := est.Iterations(plan.Tolerance)
		satisfies := plan.MaxIter <= 0 || t <= plan.MaxIter
		if plan.MaxIter > 0 && t > plan.MaxIter {
			t = plan.MaxIter
		}
		dec.Ranked = append(dec.Ranked, Choice{
			Plan:       plan,
			Iterations: t,
			Cost:       model.PlanCost(plan, t),
			Satisfies:  satisfies,
		})
	}
	sort.SliceStable(dec.Ranked, func(i, j int) bool {
		a, b := dec.Ranked[i], dec.Ranked[j]
		if a.Satisfies != b.Satisfies {
			return a.Satisfies
		}
		return a.Cost < b.Cost
	})
	dec.Best = dec.Ranked[0]

	// One driver job collects the speculation sample (the ~4s overhead the
	// paper attributes to Spark job init), then the speculation itself runs
	// on the driver.
	sim.JobInit()
	sim.Advance(dec.SpecTime)
	return dec, nil
}

// CostAll prices every plan in the space at a fixed iteration count without
// speculating, cheapest first — the paper reports sub-100ms optimization for
// this case (Section 8.3); the Figure 7(a) experiment uses it.
func CostAll(store *storage.Store, cfg cluster.Config, p gd.Params, iterations int) []Choice {
	model := costmodel.New(store, cfg)
	var out []Choice
	for _, plan := range Space(p) {
		out = append(out, Choice{
			Plan:       plan,
			Iterations: iterations,
			Cost:       model.PlanCost(plan, iterations),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}
