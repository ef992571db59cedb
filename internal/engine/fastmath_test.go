package engine

import (
	"fmt"
	"math"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
)

// forEachFastBackend runs fn once per kernel backend executable on this
// host — always the portable fast-go loops, plus the SIMD backend when the
// machine and build carry one — with dispatch pinned for the duration. The
// engine-level epsilon contract must hold for every backend the fast tier
// can resolve to, not just whichever one detection picked.
func forEachFastBackend(t *testing.T, fn func(t *testing.T)) {
	backends := []bool{false}
	if linalg.SIMDAvailable() {
		backends = append(backends, true)
	}
	for _, simd := range backends {
		simd := simd
		name := linalg.BackendFastGo
		if simd {
			prev := linalg.SetSIMD(true)
			name = linalg.FastBackend()
			linalg.SetSIMD(prev)
		}
		t.Run(name, func(t *testing.T) {
			prev := linalg.SetSIMD(simd)
			defer linalg.SetSIMD(prev)
			fn(t)
		})
	}
}

// The fast-math tier's accuracy contract, pinned end to end: training with
// Options.FastMath must agree with the bit-exact tier to a per-element
// relative epsilon on every number the kernels can influence — final weights,
// per-iteration deltas — while taking the same number of iterations and the
// same termination path. The bound below is deliberately far above the
// per-kernel error (reassociated dots are ~1e-15 off, ExpFast < 2e-8) and far
// below anything a wrong kernel could pass: 25 iterations of amplification
// through a wrong coefficient or a dropped row lands orders of magnitude
// outside it.
const fastEps = 1e-6

// relDiff is the per-element comparison metric: absolute difference scaled by
// max(1, |a|, |b|), so tiny weights are compared absolutely and large ones
// relatively.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// withinEpsilon asserts the fast-tier result tracks the exact-tier result to
// fastEps per element, with identical iteration counts and termination flags.
func withinEpsilon(t *testing.T, label string, exact, fast *Result) {
	t.Helper()
	if len(fast.Weights) != len(exact.Weights) {
		t.Fatalf("%s: weight dimension %d != %d", label, len(fast.Weights), len(exact.Weights))
	}
	for i := range fast.Weights {
		if d := relDiff(exact.Weights[i], fast.Weights[i]); d > fastEps {
			t.Fatalf("%s: weight[%d] exact %g fast %g (rel err %.3g > %.3g)",
				label, i, exact.Weights[i], fast.Weights[i], d, fastEps)
		}
	}
	if fast.Iterations != exact.Iterations {
		t.Fatalf("%s: iterations %d != %d", label, fast.Iterations, exact.Iterations)
	}
	if len(fast.Deltas) != len(exact.Deltas) {
		t.Fatalf("%s: delta count %d != %d", label, len(fast.Deltas), len(exact.Deltas))
	}
	for i := range fast.Deltas {
		if d := relDiff(exact.Deltas[i], fast.Deltas[i]); d > fastEps {
			t.Fatalf("%s: delta[%d] exact %g fast %g (rel err %.3g > %.3g)",
				label, i, exact.Deltas[i], fast.Deltas[i], d, fastEps)
		}
	}
	if fast.Converged != exact.Converged || fast.Budgeted != exact.Budgeted || fast.Diverged != exact.Diverged {
		t.Fatalf("%s: termination flags diverge (fast %v/%v/%v, exact %v/%v/%v)", label,
			fast.Converged, fast.Budgeted, fast.Diverged,
			exact.Converged, exact.Budgeted, exact.Diverged)
	}
}

// TestFastMathWithinEpsilon sweeps the fast tier against the exact tier over
// every loss (via the three tasks), both arena layouts, block widths chosen to
// land on every kernel tail path — 5 and 13 are not multiples of the 4-wide
// accumulator count or the 8-wide unroll, 512 is the default — and 1 and 8
// workers. Two invariants per cell: the numerics stay inside fastEps, and the
// simulated clock comes out strictly cheaper (Sim.CostComputeFast charges the
// calibrated fast-tier flop rate for the identical block carving).
func TestFastMathWithinEpsilon(t *testing.T) {
	forEachFastBackend(t, testFastMathWithinEpsilon)
}

func testFastMathWithinEpsilon(t *testing.T) {
	tasks := []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression}
	const n = 500
	blockSizes := []int{5, 13, 512}
	workerCounts := []int{1, 8}
	for _, task := range tasks {
		for _, dense := range []bool{true, false} {
			ds := layoutDataset(t, task, dense, n)
			st := buildStore(t, ds, 2<<10)
			p := gd.Params{Task: task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 25, Lambda: 0.05, BatchSize: 32}
			plan := gd.NewBGD(p)
			layout := "csr"
			if dense {
				layout = "dense"
			}
			for _, bs := range blockSizes {
				for _, workers := range workerCounts {
					label := fmt.Sprintf("%v/%s/block=%d/workers=%d", task, layout, bs, workers)
					opts := Options{Seed: 7, Workers: workers}
					exact, err := runBlocked(cluster.New(cluster.Default()), st, &plan, opts, bs)
					if err != nil {
						t.Fatalf("%s: exact: %v", label, err)
					}
					opts.FastMath = true
					fast, err := runBlocked(cluster.New(cluster.Default()), st, &plan, opts, bs)
					if err != nil {
						t.Fatalf("%s: fast: %v", label, err)
					}
					withinEpsilon(t, label, exact, fast)
					if fast.Time >= exact.Time {
						t.Fatalf("%s: fast sim time %g not below exact %g", label, fast.Time, exact.Time)
					}
				}
			}
		}
	}
}

// TestFastMathWithinEpsilonAllPlans runs the same fast-vs-exact comparison
// over the other batch-capable plan families — MGD (gathered sample blocks),
// SVRG (two-slot accumulator, both halves through the fast kernels) and
// line-search BGD (LossBlockFast on the probe phases) — at the default block
// width.
func TestFastMathWithinEpsilonAllPlans(t *testing.T) {
	forEachFastBackend(t, testFastMathWithinEpsilonAllPlans)
}

func testFastMathWithinEpsilonAllPlans(t *testing.T) {
	tasks := []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression}
	const n = 500
	for _, task := range tasks {
		for _, dense := range []bool{true, false} {
			ds := layoutDataset(t, task, dense, n)
			st := buildStore(t, ds, 2<<10)
			p := gd.Params{Task: task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 25, Lambda: 0.05, BatchSize: 32}
			plans := []gd.Plan{
				gd.NewMGD(p, gd.Eager, gd.ShuffledPartition),
				gd.NewSVRG(p, 5),
				gd.NewLineSearchBGD(p, 0.5),
			}
			layout := "csr"
			if dense {
				layout = "dense"
			}
			for _, plan := range plans {
				label := fmt.Sprintf("%v/%s/%s", task, layout, plan.Name())
				exact, err := Run(cluster.New(cluster.Default()), st, &plan, Options{Seed: 7, Workers: 1})
				if err != nil {
					t.Fatalf("%s: exact: %v", label, err)
				}
				fast, err := Run(cluster.New(cluster.Default()), st, &plan, Options{Seed: 7, Workers: 1, FastMath: true})
				if err != nil {
					t.Fatalf("%s: fast: %v", label, err)
				}
				withinEpsilon(t, label, exact, fast)
				if fast.Time >= exact.Time {
					t.Fatalf("%s: fast sim time %g not below exact %g", label, fast.Time, exact.Time)
				}
			}
		}
	}
}

// TestFastMathConvergenceQuality pins the optimization-quality half of the
// contract: trained to an actual convergence (tolerance hit, not budget), the
// fast tier must reach the same epsilon within a tight iteration band of the
// exact tier — the kernel tolerance must not slow or destabilize descent.
func TestFastMathConvergenceQuality(t *testing.T) {
	forEachFastBackend(t, testFastMathConvergenceQuality)
}

func testFastMathConvergenceQuality(t *testing.T) {
	for _, task := range []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression} {
		ds := layoutDataset(t, task, true, 400)
		st := buildStore(t, ds, 2<<10)
		p := gd.Params{Task: task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 2000, Lambda: 0.05}
		plan := gd.NewBGD(p)

		exact, err := Run(cluster.New(cluster.Default()), st, &plan, Options{Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("%v: exact: %v", task, err)
		}
		fast, err := Run(cluster.New(cluster.Default()), st, &plan, Options{Seed: 7, Workers: 1, FastMath: true})
		if err != nil {
			t.Fatalf("%v: fast: %v", task, err)
		}
		if !exact.Converged {
			t.Fatalf("%v: exact tier did not converge in %d iterations", task, exact.Iterations)
		}
		if !fast.Converged {
			t.Fatalf("%v: fast tier did not converge (exact did, in %d iterations)", task, exact.Iterations)
		}
		// Same tolerance, same descent: allow a band of ±2 iterations or ±2%,
		// whichever is wider — a tier that needed materially more steps to
		// reach the epsilon would be losing real optimization quality.
		band := exact.Iterations / 50
		if band < 2 {
			band = 2
		}
		diff := fast.Iterations - exact.Iterations
		if diff < 0 {
			diff = -diff
		}
		if diff > band {
			t.Fatalf("%v: fast tier converged in %d iterations, exact in %d (band ±%d)",
				task, fast.Iterations, exact.Iterations, band)
		}
	}
}

// TestFastMathPerRowPlanUnaffected pins the dispatch boundary: a Computer
// without block kernels (a per-row UDF) must produce bitwise-identical
// results — numerics, time and accounting — whether FastMath is requested or
// not, because the fast tier only exists inside the batched kernels.
func TestFastMathPerRowPlanUnaffected(t *testing.T) {
	ds := layoutDataset(t, data.TaskLogisticRegression, true, 300)
	st := buildStore(t, ds, 2<<10)
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-3, MaxIter: 20, Lambda: 0.05}
	plan := gd.NewBGD(p)
	plan.Computer = rowOnly{plan.Computer}

	base, err := Run(cluster.New(cluster.Default()), st, &plan, Options{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cluster.New(cluster.Default()), st, &plan, Options{Seed: 7, Workers: 1, FastMath: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "per-row/fastmath", base, got, 1)
}
