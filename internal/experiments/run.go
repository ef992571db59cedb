package experiments

import (
	"ml4all/internal/baselines"
	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
)

// store lays a dataset out under the config's scale-matched layout.
func (c Config) store(ds *data.Dataset) (*storage.Store, error) {
	return storage.Build(ds, LayoutFor(c.withDefaults().Scale))
}

// sim returns a fresh scale-matched simulator.
func (c Config) sim() *cluster.Sim {
	return cluster.New(ClusterFor(c.withDefaults().Scale))
}

// engineOpts returns the engine options every experiment run uses: the
// config's seed (plus an optional per-run offset) and its worker-pool size.
func (c Config) engineOpts(seedOffset int64) engine.Options {
	return engine.Options{Seed: c.Seed + seedOffset, Workers: c.Workers}
}

// baselineOpts returns the baseline-runner options every experiment uses:
// the scale-matched layout, the given seed, and the config's worker-pool
// size, so `-workers` governs baseline engine runs too.
func (c Config) baselineOpts(seed int64) baselines.Options {
	return baselines.Options{Layout: LayoutFor(c.Scale), Seed: seed, Workers: c.Workers}
}

// estimatorFor returns EstimatorFor's Section 8 settings with the config's
// worker pool applied, so speculation runs honor c.Workers (see the
// estimator.Config.Workers doc: callers pinning Workers must pin it for
// speculation too).
func (c Config) estimatorFor() estimator.Config {
	cfg := EstimatorFor(c.Seed)
	cfg.Workers = c.Workers
	return cfg
}

// runPlan executes one plan on a fresh simulator and returns the result.
func (c Config) runPlan(ds *data.Dataset, plan gd.Plan) (*engine.Result, error) {
	c = c.withDefaults()
	st, err := c.store(ds)
	if err != nil {
		return nil, err
	}
	return engine.Run(c.sim(), st, &plan, c.engineOpts(0))
}

// runAlgo executes the default physical plan for an algorithm.
func (c Config) runAlgo(ds *data.Dataset, p gd.Params, algo gd.Algo) (*engine.Result, error) {
	plan, err := gd.ForAlgo(p, algo)
	if err != nil {
		return nil, err
	}
	return c.runPlan(ds, plan)
}
