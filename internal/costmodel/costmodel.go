// Package costmodel implements the paper's Section 7: analytic IO/CPU/network
// costs per operator (Table 1 notation, Equations 3-6) composed into
// per-plan costs (Equations 7-9). The model prices each unit of work through
// the same cluster.Config price functions the simulator charges with, so its
// estimates track the simulated execution the way the paper's model tracks
// its Spark cluster — closely, but not tautologically: execution adds
// stragglers (jitter), task packing and cache dynamics the closed-form model
// does not see.
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

	// FastMath prices compute at the tier gd.KernelTier resolves under fast
	// math — cluster.FastTier for the stock losses, whose price
	// (cluster.Config.PriceCPU) follows the backend actually executing, as
	// the simulator's charge does. Set it when the run the model prices will
	// execute with engine.Options.FastMath. Per-row compute is unaffected,
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

// CIO is Equation 3: the cost of scanning the dataset once, reading the
// pages of one partition per wave. warm selects cache-resident page cost.
func (m *Model) CIO(warm bool) cluster.Seconds {
	w := m.waves()
	full := math.Floor(w)
	perWave := m.Cfg.PriceRead(m.pagesPerPart(), warm && m.Stats.FitsInCache)
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

// pagesPerPart is the page count of one partition.
func (m *Model) pagesPerPart() int64 {
	return (m.Stats.PartBytes + m.Stats.PageBytes - 1) / m.Stats.PageBytes
}

// CNT is Equation 5: transferring bytes across the network in the given
// number of aggregation rounds.
func (m *Model) CNT(bytes int64, rounds int) cluster.Seconds {
	return m.Cfg.PriceNet(bytes, rounds)
}

// unitCost prices one data unit through the plan's Transform (when lazy) and
// its Compute at tier — what the simulator charges for one unit, bit for bit.
func (m *Model) unitCost(plan gd.Plan, ops float64, tier cluster.Tier) cluster.Seconds {
	c := m.Cfg.PriceCPU(tier, 1, ops)
	if plan.Transform == gd.Lazy {
		c += m.Cfg.PriceParse(1, m.Stats.AvgUnitBytes) // a lazy BGD is off the Figure 5 space, but priced honestly
	}
	return c
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
	br.Stage = m.Cfg.PriceCPU(cluster.RowTier, 1, d)

	if plan.Transform == gd.Eager {
		br.Transform = m.CIO(false) + m.CCPU(m.Cfg.PriceParse(1, m.Stats.AvgUnitBytes))
	}

	// Converge + Loop + Update run on the driver every iteration, plus the
	// per-iteration driver coordination overhead.
	driver := m.Cfg.PriceCPU(cluster.RowTier, 1, 2*d) + m.Cfg.PriceCPU(cluster.RowTier, 1, d) +
		m.Cfg.PriceCPU(cluster.RowTier, 1, 1) + m.Cfg.DriverIterSec

	var iter cluster.Seconds
	switch {
	case plan.Sampling == gd.NoSampling:
		// BGD (Eq. 7): full scan + compute per iteration, then the reduce.
		iter = m.CIO(true) + m.CCPU(m.unitCost(plan, ops, tier))
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
		return cluster.Seconds(b) * m.Cfg.PriceRead(int64(pages), m.Stats.FitsInCache)
	case gd.ShuffledPartition:
		// Amortized refill (partition read + shuffle pass) every k draws,
		// plus sequential pages for the served units.
		k := float64(m.Stats.UnitsPerPart)
		if k == 0 {
			k = 1
		}
		refill := m.Cfg.PriceRead(m.pagesPerPart(), m.Stats.FitsInCache) +
			cluster.Seconds(k)*(m.Cfg.FlopSec+m.Cfg.UnitOverheadSec)
		served := math.Ceil(b*m.Stats.AvgUnitBytes/float64(m.Stats.PageBytes)) + 1
		return refill*cluster.Seconds(b/k) + cluster.Seconds(served)*m.Cfg.MemPageSec
	default:
		return 0
	}
}

// batchCost prices transform (if lazy) + compute + aggregation for a sampled
// batch, honoring the Appendix D placement rule.
func (m *Model) batchCost(plan gd.Plan, ops float64, accDim int, tier cluster.Tier) cluster.Seconds {
	b := float64(plan.BatchSize)
	batchBytes := int64(b * m.Stats.AvgUnitBytes)
	var c cluster.Seconds
	perUnit := m.unitCost(plan, ops, tier)
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
