package cluster

import "ml4all/internal/linalg"

// Post-batched-kernel calibration of the Compute operator's per-unit cost.
//
// The simulator charges CPU as ops·FlopSec + units·UnitOverheadSec (CostCPU).
// UnitOverheadSec models the per-record UDF invocation overhead of a row-at-
// a-time executor — virtual dispatch, per-row view construction, loop
// bookkeeping. Since the batched execution layer, plans whose Computer
// implements gd.BatchComputer no longer pay that per row: dispatch happens
// once per 512-row block and the kernels run fused loops over the columnar
// arena. Keeping the full per-unit overhead in the simulator (and therefore
// in the cost model, which is calibrated by the same Config) would make
// adaptive re-costing price compute phases at pre-kernel speeds and prefer
// sampling-heavy plans that the post-kernel executor has no reason to favor.
//
// ComputeUnitOverheadFrac is the measured fraction of the per-unit overhead
// that survives batching. Measurement (Intel Xeon @ 2.10GHz, linux/amd64,
// go1.24):
//
//	go test -bench 'BenchmarkGradientPath' -benchtime=1s ./internal/gradients/
//
//	                        row path     blocked      pure kernel   overhead
//	                        ns/row       ns/row       ns/row        post/pre
//	dense d=50 (logistic)   121.9        81.7         ~79           ~0.07
//	CSR  nnz=2 (logistic)    72.8        19.1         ~5            ~0.21
//
// where "overhead" is (path − pure kernel work); the pure kernel figure is
// the blocked path at large nnz extrapolated per row. The surviving
// overhead is the per-block dispatch plus residual per-row branch cost. We
// charge the conservative (upper) measured ratio, 0.25, rather than the
// dense figure: simulated compute phases for batch-capable plans cost
// ops·FlopSec + units·UnitOverheadSec·0.25, via Sim.CostCompute. Per-row
// Computer UDFs (anything not implementing gd.BatchComputer) still pay the
// full overhead through CostCPU — on the simulated cluster, as for real,
// only batched operators amortize their dispatch.
const ComputeUnitOverheadFrac = 0.25

// FastMathFlopFrac is the measured per-flop cost fraction of the fast-math
// kernel tier (engine.Options.FastMath) relative to the bit-exact blocked
// kernels: multi-accumulator dots break the FP-add dependency chain the
// exact tier serializes on, the fused four-row gradient accumulation
// quarters the gradient-vector memory traffic, and the logistic sigmoid
// runs the polynomial linalg.ExpFast instead of math.Exp. Measurement
// (same host as the table above, go1.24, median of 5–7 runs):
//
//	three full BGD compute passes over 100k rows, exact and fast tier — the
//	ratio bench/ reports on every PR as engine.rows_per_s.{dense,sparse}.{exact,fast}
//
//	                         exact        fast         fast/exact
//	                         ns/op        ns/op
//	dense d=50, workers=1    24.7e6       17.1e6       0.69
//	dense d=50, workers=8    26.5e6       15.7e6       0.59
//	sparse nnz≈50, workers=1 41.3e6       29.7e6       0.72
//	sparse nnz≈50, workers=8 38.6e6       32.1e6       0.83
//
// The per-unit dispatch overhead is tier-independent (same block carving,
// same kernel-call count), so the fast tier is charged the same
// ComputeUnitOverheadFrac and only the flop rate changes. We charge 0.70 —
// the median measured ratio, not the best one — via CostComputeFast, which
// scales only the flop term: for sparse-dominated ops mixes the flop term is
// small against the overhead term and the charged advantage shrinks
// accordingly, tracking the measurement.
//
// Since the SIMD kernel backend the flop fraction is per-backend: this
// constant is the portable fast-go tier's figure, and FastMathFlopFracFor
// resolves the one the running binary actually executes.
const FastMathFlopFrac = 0.70

// FastMathFlopFracSIMD is the measured per-flop cost fraction of the
// AVX2+FMA assembly backend (linalg.BackendSIMDAVX2) relative to the exact
// kernels. Measurement (Intel Xeon @ 2.10GHz, AVX2+FMA, linux/amd64,
// go1.24, median of 5 runs, runtime dispatch live):
//
//	three full BGD compute passes over 100k rows, exact and fast tier — the
//	ratio bench/ reports on every PR as engine.rows_per_s.{dense,sparse}.{exact,fast}
//
//	                         exact        fast-simd    simd/exact
//	                         ns/op        ns/op
//	dense d=50, workers=1    26.6e6       7.7e6        0.29
//	dense d=50, workers=8    25.1e6       7.7e6        0.31
//	sparse nnz≈50, workers=1 39.3e6       26.0e6       0.66
//	sparse nnz≈50, workers=8 37.8e6       26.6e6       0.70
//
// (Kernel-level: dense margins 22.5 -> 7.3 ns/row, fused accumulate
// 19.1 -> 6.2 ns/row, vector exp 5.9 -> 1.1 ns/elem, gathered sparse dot
// 21.8 -> 15.1 ns/row over the fast-go loops.) As with FastMathFlopFrac we
// charge the median across measured shapes, 0.50, not the dense best case:
// the sparse ratios carry residual per-unit overhead the flop term should
// not be credited for, and the dense ratios would overstate the win on
// gather-bound mixes.
const FastMathFlopFracSIMD = 0.50

// FastMathFlopFracFor returns the per-flop cost fraction for a fast-tier
// kernel backend (a linalg.FastBackend value): the AVX2 figure for the
// assembly backend, the portable tier's for anything else.
func FastMathFlopFracFor(backend string) float64 {
	if backend == linalg.BackendSIMDAVX2 {
		return FastMathFlopFracSIMD
	}
	return FastMathFlopFrac
}

// ActiveFastMathFlopFrac resolves the flop fraction of the backend the
// running binary dispatches to right now (runtime CPU detection plus any
// noasm/SetSIMD override), so simulator and cost model price
// the fast tier as executed, not as compiled.
func ActiveFastMathFlopFrac() float64 {
	return FastMathFlopFracFor(linalg.FastBackend())
}
