// Package costmodel implements the paper's Section 7: analytic IO/CPU/network
// costs per operator (Table 1 notation, Equations 3-6) composed into
// per-plan costs (Equations 7-9). The model is calibrated by the same
// cluster.Config the simulator runs with, so its estimates track the
// simulated execution the way the paper's model tracks its Spark cluster —
// closely, but not tautologically: execution adds stragglers (jitter), task
// packing and cache dynamics the closed-form model does not see.
package costmodel

import (
	"fmt"
	"math"

	"ml4all/internal/cluster"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
)

// DataStats is the statistics vector the model needs about a dataset —
// everything in Table 1 that depends on D.
type DataStats struct {
	N            int     // n: number of data units
	Bytes        int64   // |D|_b
	AvgUnitBytes float64 // |U|_b on average
	AvgNNZ       float64 // mean stored values per unit
	NumFeatures  int     // d
	Partitions   int     // p(D)
	UnitsPerPart int     // k
	PartBytes    int64   // |P|_b
	PageBytes    int64   // |page|_b
	FitsInCache  bool    // |D|_b <= cache capacity
}

// StatsOf derives DataStats from a laid-out store and a cluster config.
func StatsOf(st *storage.Store, cfg cluster.Config) DataStats {
	ds := st.Dataset
	s := DataStats{
		N:            ds.N(),
		Bytes:        st.TotalBytes,
		NumFeatures:  ds.NumFeatures,
		Partitions:   st.NumPartitions(),
		UnitsPerPart: st.UnitsPerPartition(),
		PartBytes:    st.Layout.PartitionBytes,
		PageBytes:    st.Layout.PageBytes,
		FitsInCache:  st.TotalBytes <= cfg.CacheBytes,
	}
	if s.N > 0 {
		s.AvgUnitBytes = float64(s.Bytes) / float64(s.N)
		s.AvgNNZ = float64(ds.Mat.NNZ()) / float64(s.N)
	}
	return s
}

// Model prices operators and plans for one dataset on one cluster.
type Model struct {
	Cfg   cluster.Config
	Stats DataStats

	// FastMath prices batched compute at the fast kernel tier's measured
	// flop rate (cluster.ActiveFastMathFlopFrac, which resolves the SIMD or
	// portable backend actually executing), mirroring Sim.CostComputeFast —
	// set it when the run the model prices will execute with
	// engine.Options.FastMath. Per-row and randomized compute is unaffected,
	// exactly as in execution.
	FastMath bool
}

// New returns a model for the given store and cluster configuration.
func New(st *storage.Store, cfg cluster.Config) *Model {
	return &Model{Cfg: cfg, Stats: StatsOf(st, cfg)}
}

// waves returns w(D) = p(D)/cap as a float (Table 1); floor/ceil handling
// follows Equations 3-4.
func (m *Model) waves() float64 {
	return float64(m.Stats.Partitions) / float64(m.Cfg.Cap())
}

// pageIO returns the per-page read cost, from cache when the dataset is
// resident and warm, from disk otherwise.
func (m *Model) pageIO(warm bool) cluster.Seconds {
	if warm && m.Stats.FitsInCache {
		return m.Cfg.MemPageSec
	}
	return m.Cfg.DiskPageSec
}

// CIO is Equation 3: the cost of scanning the dataset once, reading the
// pages of one partition per wave. warm selects cache-resident page cost.
func (m *Model) CIO(warm bool) cluster.Seconds {
	pagesPerPart := cluster.Seconds((m.Stats.PartBytes + m.Stats.PageBytes - 1) / m.Stats.PageBytes)
	w := m.waves()
	full := math.Floor(w)
	perWave := m.Cfg.SeekSec + pagesPerPart*m.pageIO(warm)
	c := cluster.Seconds(full) * perWave
	// Last (partial) wave: the remaining partitions, costed as one
	// partition's pages (they run in parallel).
	if rem := float64(m.Stats.Partitions) - full*float64(m.Cfg.Cap()); rem > 0 {
		c += perWave
	}
	return c
}

// CCPU is Equation 4: the cost of processing every data unit with a per-unit
// cost, k units per wave.
func (m *Model) CCPU(perUnit cluster.Seconds) cluster.Seconds {
	k := float64(m.Stats.UnitsPerPart)
	w := m.waves()
	full := math.Floor(w)
	c := cluster.Seconds(full*k) * perUnit
	if rem := float64(m.Stats.Partitions) - full*float64(m.Cfg.Cap()); rem > 0 {
		c += cluster.Seconds(k) * perUnit
	}
	// Per-wave scheduling overhead parallels the simulator's charging.
	c += cluster.Seconds(math.Ceil(w)) * m.Cfg.WaveOverheadSec
	return c
}

// CNT is Equation 5: transferring bytes across the network in the given
// number of aggregation rounds.
func (m *Model) CNT(bytes int64, rounds int) cluster.Seconds {
	if bytes <= 0 {
		return 0
	}
	if rounds < 1 {
		rounds = 1
	}
	return cluster.Seconds(float64(bytes)/m.Cfg.NetBytePerSec) +
		cluster.Seconds(rounds)*m.Cfg.PacketLatencySec
}

// Per-unit CPU costs for the stock operators.

func (m *Model) parsePerUnit() cluster.Seconds {
	return cluster.Seconds(m.Stats.AvgUnitBytes)*m.Cfg.ParseByteSec + m.Cfg.UnitOverheadSec
}

// computePerUnit prices one Compute invocation on one unit at the plan's
// kernel tier, mirroring what the simulator charges: RowTier pays the full
// per-unit dispatch overhead (Sim.CostCPU), BlockTier the measured
// post-batching fraction of it (Sim.CostCompute; see
// cluster.ComputeUnitOverheadFrac for the measured constant table), and
// FastTier that plus the executing backend's fast-kernel throughput (SIMD
// when dispatch is live, portable fast-go otherwise; Sim.CostComputeFast).
func (m *Model) computePerUnit(ops float64, tier gd.Tier) cluster.Seconds {
	overhead := m.Cfg.UnitOverheadSec
	flop := m.Cfg.FlopSec
	if tier != gd.RowTier {
		overhead *= cluster.ComputeUnitOverheadFrac
	}
	if tier == gd.FastTier {
		flop *= cluster.Seconds(cluster.ActiveFastMathFlopFrac())
	}
	return cluster.Seconds(ops)*flop + overhead
}

// driverOp prices a small driver-side operator over the model dimensionality
// (Update, Converge).
func (m *Model) driverOp(flops float64) cluster.Seconds {
	return cluster.Seconds(flops)*m.Cfg.FlopSec + m.Cfg.UnitOverheadSec
}

// Breakdown itemizes a plan's estimated cost the way Section 7.2 composes it.
type Breakdown struct {
	Plan      string
	Stage     cluster.Seconds // c_S
	Transform cluster.Seconds // c_T (upfront for eager; per-iteration share for lazy is in Iteration)
	Iteration cluster.Seconds // per-iteration cost: sample + (lazy transform) + compute + update + converge + loop
	JobInit   cluster.Seconds
	Total     func(T int) cluster.Seconds
}

// PlanCost returns the estimated total cost of running plan for T iterations
// (Equations 7-9 generalized to every plan in the Figure 5 space).
func (m *Model) PlanCost(plan gd.Plan, T int) cluster.Seconds {
	b := m.Breakdown(plan)
	return b.Total(T)
}

// Breakdown computes the itemized estimate for a plan.
func (m *Model) Breakdown(plan gd.Plan) Breakdown {
	ops := plan.Computer.Ops(int(math.Round(m.Stats.AvgNNZ)))
	accDim := plan.Computer.AccDim(m.Stats.NumFeatures)
	// The tier the engine resolves and bills this plan at.
	tier := gd.KernelTier(plan.Computer, m.FastMath)
	d := float64(m.Stats.NumFeatures)

	br := Breakdown{Plan: plan.Name(), JobInit: m.Cfg.JobInitSec}
	br.Stage = m.driverOp(d)

	if plan.Transform == gd.Eager {
		br.Transform = m.CIO(false) + m.CCPU(m.parsePerUnit())
	}

	// Converge + Loop + Update run on the driver every iteration, plus the
	// per-iteration driver coordination overhead.
	driver := m.driverOp(2*d) + m.driverOp(d) + m.driverOp(1) + m.Cfg.DriverIterSec

	var iter cluster.Seconds
	switch {
	case plan.Sampling == gd.NoSampling:
		// BGD (Eq. 7): full scan + compute per iteration, then the reduce.
		perUnit := m.computePerUnit(ops, tier)
		if plan.Transform == gd.Lazy {
			perUnit += m.parsePerUnit() // off the Figure 5 space, but priced honestly
		}
		iter = m.CIO(true) + m.CCPU(perUnit)
		iter += m.CNT(int64(m.Cfg.Executors()*accDim)*8, 1)
	default:
		iter = m.sampleCost(plan) + m.batchCost(plan, ops, accDim, tier)
	}
	iter += driver

	br.Iteration = iter
	br.Total = func(T int) cluster.Seconds {
		return br.JobInit + br.Stage + br.Transform + cluster.Seconds(T)*br.Iteration
	}
	return br
}

// sampleCost prices one Draw of the plan's sampling strategy (the c_SP term
// of Equations 8-9).
func (m *Model) sampleCost(plan gd.Plan) cluster.Seconds {
	b := float64(plan.BatchSize)
	switch plan.Sampling {
	case gd.Bernoulli:
		// Full scan with a per-unit coin flip.
		return m.CIO(true) + m.CCPU(m.Cfg.UnitOverheadSec)
	case gd.RandomPartition:
		// b random accesses: each a seek plus the pages covering one unit.
		pages := math.Ceil(m.Stats.AvgUnitBytes / float64(m.Stats.PageBytes))
		per := m.Cfg.SeekSec + cluster.Seconds(pages)*m.pageIO(true)
		return cluster.Seconds(b) * per
	case gd.ShuffledPartition:
		// Amortized refill (partition read + shuffle pass) every k draws,
		// plus sequential pages for the served units.
		k := float64(m.Stats.UnitsPerPart)
		if k == 0 {
			k = 1
		}
		pagesPerPart := float64((m.Stats.PartBytes + m.Stats.PageBytes - 1) / m.Stats.PageBytes)
		refill := m.Cfg.SeekSec + cluster.Seconds(pagesPerPart)*m.pageIO(true) +
			cluster.Seconds(k)*(m.Cfg.FlopSec+m.Cfg.UnitOverheadSec)
		served := math.Ceil(b*m.Stats.AvgUnitBytes/float64(m.Stats.PageBytes)) + 1
		return refill*cluster.Seconds(b/k) + cluster.Seconds(served)*m.Cfg.MemPageSec
	default:
		return 0
	}
}

// batchCost prices transform (if lazy) + compute + aggregation for a sampled
// batch, honoring the Appendix D placement rule.
func (m *Model) batchCost(plan gd.Plan, ops float64, accDim int, tier gd.Tier) cluster.Seconds {
	b := float64(plan.BatchSize)
	batchBytes := int64(b * m.Stats.AvgUnitBytes)
	var c cluster.Seconds
	perUnit := m.computePerUnit(ops, tier)
	if plan.Transform == gd.Lazy {
		perUnit += m.parsePerUnit()
	}
	distributed := batchBytes > m.Stats.PartBytes
	switch plan.Mode {
	case gd.CentralizedMode:
		distributed = false
	case gd.DistributedMode:
		distributed = true
	}
	if distributed {
		// Tasks grouped by partition; at most cap run in parallel. The
		// batch spreads over min(b, p(D)) partitions.
		parts := math.Min(b, float64(m.Stats.Partitions))
		waves := math.Ceil(parts / float64(m.Cfg.Cap()))
		unitsPerTask := b / parts
		c = cluster.Seconds(waves) * (cluster.Seconds(unitsPerTask)*perUnit + m.Cfg.WaveOverheadSec)
		execs := math.Min(parts, float64(m.Cfg.Executors()))
		c += m.CNT(int64(execs)*int64(accDim)*8, 1)
	} else {
		c = m.CNT(batchBytes, 1) + cluster.Seconds(b)*perUnit
	}
	return c
}

// String renders a breakdown for reports.
func (b Breakdown) String() string {
	return fmt.Sprintf("%s: stage=%.3gs transform=%.3gs iter=%.3gs init=%.3gs",
		b.Plan, float64(b.Stage), float64(b.Transform), float64(b.Iteration), float64(b.JobInit))
}
