// Package estimator implements the paper's speculation-based iterations
// estimator (Section 5, Algorithm 1): run a GD algorithm on a small sample of
// the dataset under a time budget until a loose speculation tolerance εs,
// record the error sequence {(i, ε_i)}, fit T(ε) = a/ε, and extrapolate the
// iterations needed for the user's tolerance εd. The approach works for any
// convex loss, any GD variant and any step size because the fit is learned
// purely from the observed sequence.
package estimator

import (
	"fmt"
	"math"

	"ml4all/internal/cluster"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/storage"
)

// Config tunes Algorithm 1. Zero values take the paper's defaults.
type Config struct {
	SampleSize    int             // |D'|; paper default 1000
	SpecTolerance float64         // εs; paper default 0.05 (0.1 in Section 8)
	TimeBudget    cluster.Seconds // B; paper default 1 min (10 s in Section 8)
	Seed          int64
	// Workers sizes the engine's worker pool for speculation runs (0 =
	// GOMAXPROCS, 1 = serial). It never changes the estimate — speculation
	// is worker-count invariant like any engine run — but callers pinning
	// Workers: 1 for stateful UDFs must pin it here too, which the public
	// System does automatically.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.SampleSize <= 0 {
		c.SampleSize = 1000
	}
	if c.SpecTolerance <= 0 {
		c.SpecTolerance = 0.05
	}
	if c.TimeBudget <= 0 {
		c.TimeBudget = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Point is one observation of the error sequence: after iteration Iter the
// algorithm had reached tolerance Err.
type Point struct {
	Iter int
	Err  float64
}

// Estimate is the outcome of speculating one GD algorithm.
type Estimate struct {
	Algo     gd.Algo
	A        float64         // fitted coefficient of T(ε) = a/ε
	Sequence []Point         // monotone error sequence observed on the sample
	SpecTime cluster.Seconds // simulated time the speculation run took
	// Exact, when >= 0, records that the sample run converged after this
	// many iterations, on a last delta of FinalDelta: Iterations then
	// reports that observation instead of extrapolating for every
	// tolerance the run reached.
	Exact      int
	FinalDelta float64
	// Weights and Diverged are the speculation run's final model and whether
	// it left the finite range, for callers that score what the run learned.
	Weights  linalg.Vector
	Diverged bool
}

// Iterations returns T(εd), the estimated iterations to reach tolerance εd.
func (e Estimate) Iterations(eps float64) int {
	if eps <= 0 {
		return math.MaxInt32
	}
	if e.Exact >= 0 && e.FinalDelta <= eps {
		// The run's own final delta, not the last Sequence point:
		// MonotoneSequence drops a zero delta (hinge SGD's last step can
		// move nothing), which would leave a stale point behind.
		return e.Exact
	}
	t := e.A / eps
	if t < 1 {
		return 1
	}
	if t > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Ceil(t))
}

// FitInverse fits T(ε) = a/ε to an error sequence by least squares on
// i ≈ a/ε_i, which has the closed form a = Σ(i/ε_i) / Σ(1/ε_i²). Points with
// non-positive error are skipped.
func FitInverse(seq []Point) (a float64, err error) {
	var num, den float64
	for _, p := range seq {
		if p.Err <= 0 {
			continue
		}
		inv := 1 / p.Err
		num += float64(p.Iter) * inv
		den += inv * inv
	}
	if den == 0 {
		return 0, fmt.Errorf("estimator: no usable points to fit")
	}
	return num / den, nil
}

// RemainingIterations projects how many more iterations a T(ε) = a/ε
// process needs to go from error level now to target eps. Going from scratch
// the head of the curve is cheap and the tail expensive, so the projection is
// a·(1/eps − 1/now) — the iterations a successor plan saves by inheriting an
// incumbent's progress are exactly the a/now head it skips. The result is
// ceiled and clamped to at least 1; a non-finite or non-positive a yields
// +Inf (unfittable) or 0 (nothing to do) respectively.
func RemainingIterations(a, eps, now float64) float64 {
	if eps <= 0 {
		return math.Inf(1)
	}
	if math.IsInf(a, 0) || a <= 0 {
		if a <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	rem := a / eps
	if now > 0 && !math.IsInf(now, 0) {
		rem -= a / now
	}
	if rem < 1 {
		rem = 1
	}
	return math.Ceil(rem)
}

// MonotoneSequence converts a raw per-iteration delta trace into the
// monotone "reached tolerance" sequence Algorithm 1 records: ε_i is the best
// (smallest) delta seen up to iteration i, emitted only when it improves.
func MonotoneSequence(deltas []float64) []Point {
	var seq []Point
	best := math.Inf(1)
	for i, d := range deltas {
		if d < best && d > 0 && !math.IsInf(d, 0) {
			best = d
			seq = append(seq, Point{Iter: i + 1, Err: d})
		}
	}
	return seq
}

// Speculate runs Algorithm 1 for one plan: sample the dataset, run the plan
// on the sample on a local single-core simulator until εs or the budget, fit
// the curve. The simulated time the speculation consumed is returned inside
// the Estimate so the optimizer can charge it to the main clock.
func Speculate(plan gd.Plan, store *storage.Store, cfg Config) (Estimate, error) {
	cfg = cfg.withDefaults()
	est := Estimate{Algo: plan.Algorithm, Exact: -1}

	sample := store.Dataset.Sample(cfg.SampleSize, cfg.Seed)
	// Sample is a gathered view of the parent's arena; packing the (tiny) D'
	// into an arena of its own lets the run's full passes take the contiguous
	// block kernels — the same bits, by the block-vs-row contract.
	sample.Mat = sample.Mat.Compact()
	// The sample is tiny; lay it out with the same page size but a single
	// partition, as the paper's driver-side speculation would see it.
	layout := store.Layout
	layout.PartitionBytes = 1 << 62
	sampleStore, err := storage.Build(sample, layout)
	if err != nil {
		return est, err
	}

	specPlan := plan
	specPlan.Tolerance = cfg.SpecTolerance
	specPlan.MaxIter = 1 << 20 // the budget, not the cap, ends speculation
	specPlan.Mode = gd.CentralizedMode

	simCfg := cluster.SpeculationLocal()
	simCfg.Seed = cfg.Seed
	sim := cluster.New(simCfg)

	res, err := engine.Run(sim, sampleStore, &specPlan, engine.Options{
		TimeBudget: cfg.TimeBudget,
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
	})
	if err != nil {
		return est, err
	}
	est.SpecTime = res.Time
	est.Weights, est.Diverged = res.Weights, res.Diverged
	est.Sequence = MonotoneSequence(res.Deltas)
	if len(est.Sequence) == 0 {
		// Nothing improved: assume the worst and let the plan's MaxIter
		// bound the cost estimate.
		est.A = math.Inf(1)
		return est, nil
	}
	if res.Converged {
		est.Exact, est.FinalDelta = res.Iterations, res.FinalDelta
	}
	a, err := FitInverse(est.Sequence)
	if err != nil {
		return est, err
	}
	est.A = a
	return est, nil
}
