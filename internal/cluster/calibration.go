package cluster

import "ml4all/internal/linalg"

// The price list. Each kind of simulated work has one pure price function on
// Config — CPU at a kernel tier (PriceCPU), parsing (PriceParse), the network
// (PriceNet), and a seek plus pages at cache or disk speed (PriceRead) — and
// both sides of the paper's cost loop call them: Sim's charges add their
// accounting around one call each, and package costmodel builds Table 1's
// per-unit terms (Equations 3-6) from the same calls. A rate therefore lives
// in exactly one formula, and an estimate prices one unit of work to the bit
// the execution charges for it.
//
// A kernel tier's rate is two measured fractions (Tier.rates): of FlopSec
// and of UnitOverheadSec. The tables below are where they come from.

// Tier is which kernels a compute pass runs, and with that the rate its
// work is priced at. gd.KernelTier resolves a plan's tier; the engine bills
// and the cost model prices by that answer alone.
type Tier int

const (
	// RowTier is one Compute call per row, billed at the full per-row
	// dispatch overhead: custom Computer UDFs, and stock computers over a
	// custom Gradient without block kernels. Driver operators, Stage and the
	// samplers' passes are priced at it too.
	RowTier Tier = iota
	// BlockTier is one ComputeBlock call per block over the bit-exact block
	// kernels, billed at the amortized dispatch cost.
	BlockTier
	// FastTier is BlockTier over the tolerance-bounded fast kernels, billed
	// at the fast tier's measured throughput on the executing backend.
	FastTier
)

// rates returns the fractions of FlopSec and UnitOverheadSec that work at
// tier t pays: both whole for RowTier, the post-batching unit overhead
// (ComputeUnitOverheadFrac) for the block tiers, and for FastTier the flop
// fraction of the backend the running binary dispatches to right now
// (runtime CPU detection plus any noasm/SetSIMD override), so a price
// follows the kernels as executed, not as compiled.
func (t Tier) rates() (flop, unit Seconds) {
	switch t {
	case RowTier:
		return 1, 1
	case FastTier:
		flop = FastMathFlopFrac
		if linalg.FastBackend() == linalg.BackendSIMDAVX2 {
			flop = FastMathFlopFracSIMD
		}
		return flop, ComputeUnitOverheadFrac
	default:
		return 1, ComputeUnitOverheadFrac
	}
}

// PriceCPU is the CPU price of ops multiply-adds over units data units at
// kernel tier t.
func (c Config) PriceCPU(t Tier, units int, ops float64) Seconds {
	flop, unit := t.rates()
	return Seconds(ops)*c.FlopSec*flop + Seconds(units)*c.UnitOverheadSec*unit
}

// PriceParse is the CPU price of parsing bytes of raw input (the Transform
// operator's work) over units data units.
func (c Config) PriceParse(units int, bytes float64) Seconds {
	return Seconds(bytes)*c.ParseByteSec + Seconds(units)*c.UnitOverheadSec
}

// PriceNet is the price of moving bytes across the network in the given
// number of aggregation rounds (at least one): bandwidth plus per-round
// latency. Nothing to move costs nothing.
func (c Config) PriceNet(bytes int64, rounds int) Seconds {
	if bytes <= 0 {
		return 0
	}
	return Seconds(float64(bytes)/c.NetBytePerSec) + Seconds(max(rounds, 1))*c.PacketLatencySec
}

// PriceRead is the IO price of one access of pages pages: a seek plus each
// page from the cache when cached, from disk otherwise.
func (c Config) PriceRead(pages int64, cached bool) Seconds {
	page := c.DiskPageSec
	if cached {
		page = c.MemPageSec
	}
	return c.SeekSec + Seconds(pages)*page
}

// Post-batched-kernel calibration of the Compute operator's per-unit cost.
//
// PriceCPU charges ops·FlopSec + units·UnitOverheadSec at RowTier.
// UnitOverheadSec models the per-record UDF invocation overhead of a row-at-
// a-time executor — virtual dispatch, per-row view construction, loop
// bookkeeping. Since the batched execution layer, plans whose Computer
// implements gd.BatchComputer no longer pay that per row: dispatch happens
// once per 512-row block and the kernels run fused loops over the columnar
// arena. Keeping the full per-unit overhead in the price would make
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
// dense figure: compute phases of batch-capable plans cost
// ops·FlopSec + units·UnitOverheadSec·0.25, the BlockTier price. Per-row
// Computer UDFs (anything not implementing gd.BatchComputer) still pay the
// full overhead at RowTier — on the simulated cluster, as for real, only
// batched operators amortize their dispatch.
const ComputeUnitOverheadFrac = 0.25

// FastMathFlopFrac is the measured per-flop cost fraction of the fast-math
// kernel tier (engine.Options.FastMath) relative to the bit-exact blocked
// kernels, taken when the tier also had its own sparse dot and polynomial
// exponential: multi-accumulator dots break the FP-add dependency chain the
// exact tier serializes on, and the fused four-row gradient accumulation
// quarters the gradient-vector memory traffic. The tier now runs the exact
// kernels on CSR blocks and for the sigmoid, and this price still covers
// that work until the constants are regenerated from a measurement.
// Measurement (same host as the table above, go1.24, median of 5–7 runs):
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
// the median measured ratio, not the best one — as FastTier's flop
// fraction, which scales only the flop term: for sparse-dominated ops mixes
// the flop term is small against the overhead term and the charged
// advantage shrinks accordingly, tracking the measurement.
//
// Since the SIMD kernel backend the flop fraction is per-backend: this
// constant is the portable fast-go tier's figure, and Tier.rates picks the
// one the running binary actually executes.
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
