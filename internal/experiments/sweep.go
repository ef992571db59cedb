package experiments

import (
	"fmt"
	"sync"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
)

// sweep is what Figures 8, 9, 13, 14, 17, 18 and Table 4 all read for one
// dataset under the Section 8 setup: the optimizer's decision, every plan of
// the space run to convergence on its own fresh simulator, and the chosen
// plan run on the optimizer's clock, after speculation.
type sweep struct {
	dec     *planner.Decision
	specEnd cluster.Seconds           // the optimizer's clock once speculation is paid
	total   cluster.Seconds           // the same clock after the chosen plan finished
	runs    map[string]*engine.Result // by plan name
}

// sweepParams is the setup those figures share: tolerance 0.001, at most
// 1000 iterations (MGD at the default batch of 1000).
func sweepParams(ds *data.Dataset) gd.Params { return ParamsFor(ds, 0.001, 1000) }

var (
	sweepMu    sync.Mutex
	sweepCache = map[string]*sweep{}
)

// sweep returns the named dataset's sweep, memoized per process like the
// dataset itself, plus the other thing a result depends on: the seed.
// Workers is not in the key — it never changes a result.
func (c Config) sweep(name string) (*sweep, error) {
	c = c.withDefaults()
	key := fmt.Sprintf("%s@%d/seed=%d", name, c.Scale, c.Seed)
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if s, ok := sweepCache[key]; ok {
		return s, nil
	}
	ds, err := c.Dataset(name)
	if err != nil {
		return nil, err
	}
	st, err := c.store(ds)
	if err != nil {
		return nil, err
	}
	p := sweepParams(ds)

	sim := c.sim()
	dec, err := planner.Choose(sim, st, p, planner.Options{Estimator: c.estimatorFor()})
	if err != nil {
		return nil, err
	}
	s := &sweep{dec: dec, specEnd: sim.Now(), runs: map[string]*engine.Result{}}
	chosen := dec.Best.Plan
	if _, err := engine.Run(sim, st, &chosen, c.engineOpts(0)); err != nil {
		return nil, err
	}
	s.total = sim.Now()

	for _, plan := range planner.Space(p) {
		res, err := engine.Run(c.sim(), st, &plan, c.engineOpts(0))
		if err != nil {
			return nil, err
		}
		s.runs[plan.Name()] = res
	}
	sweepCache[key] = s
	return s, nil
}

// bestFor returns the optimizer's cheapest plan for a fixed algorithm — what
// Section 8.4 and Table 4 use ML4all for — and that plan's run.
func (s *sweep) bestFor(algo gd.Algo) (gd.Plan, *engine.Result) {
	for _, choice := range s.dec.Ranked {
		if choice.Plan.Algorithm == algo {
			return choice.Plan, s.runs[choice.Plan.Name()]
		}
	}
	panic(fmt.Sprintf("experiments: no %v plan in the space", algo))
}

// cell returns the run of one (algorithm, transform, sampling) point of the
// plan space.
func (s *sweep) cell(algo gd.Algo, tp gd.TransformPlacement, sk gd.SamplingKind) *engine.Result {
	return s.runs[gd.Plan{Algorithm: algo, Transform: tp, Sampling: sk}.Name()]
}
