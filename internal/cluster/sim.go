package cluster

import (
	"fmt"
	"math/rand"
	"slices"

	"ml4all/internal/storage"
)

// Accounting accumulates what the simulated cluster did, for reports and
// tests.
type Accounting struct {
	DiskPages  int64
	MemPages   int64
	Seeks      int64
	NetBytes   int64
	Packets    int64
	Tasks      int64
	Waves      int64
	Jobs       int64
	UnitsSeen  int64
	CPUSeconds Seconds
	IOSeconds  Seconds
	NetSeconds Seconds
}

// Sim is a simulated cluster: a configuration, a virtual clock, a block cache
// and deterministic jitter. It is not safe for concurrent use; each training
// run owns one Sim.
type Sim struct {
	Cfg   Config
	Cache *storage.Cache
	Acct  Accounting

	clock Seconds
	src   *CountingSource
	rng   *rand.Rand

	// Reusable wave-scheduling scratch (RunWaves); content never outlives a
	// call, so reuse is invisible to results.
	waveBuf []Seconds
	coreBuf []Seconds
}

// New returns a Sim for cfg. It panics on an invalid configuration, which is
// always a programming error.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	src := NewCountingSource(cfg.Seed)
	return &Sim{
		Cfg:   cfg,
		Cache: storage.NewCache(cfg.CacheBytes),
		src:   src,
		rng:   rand.New(src),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Seconds { return s.clock }

// Reset rewinds the clock, empties the cache and clears accounting, keeping
// the configuration.
func (s *Sim) Reset() {
	s.clock = 0
	s.Cache.Reset()
	s.Acct = Accounting{}
	s.src = NewCountingSource(s.Cfg.Seed)
	s.rng = rand.New(s.src)
}

// SimState is a serializable snapshot of a Sim mid-run: the clock, the
// accumulated accounting, the jitter stream position and the block-cache
// contents. Together with the (comparable) Config it pins the simulator
// exactly — a fresh Sim built from the same Config and Restore'd from the
// state continues bit-identically.
type SimState struct {
	Cfg      Config
	Clock    Seconds
	Acct     Accounting
	RNGDraws uint64
	Cache    storage.CacheState
}

// Snapshot captures the simulator's full dynamic state.
func (s *Sim) Snapshot() SimState {
	return SimState{
		Cfg:      s.Cfg,
		Clock:    s.clock,
		Acct:     s.Acct,
		RNGDraws: s.src.Draws(),
		Cache:    s.Cache.Snapshot(),
	}
}

// Restore rewinds the simulator to a snapshot taken from a Sim with the same
// configuration (clock, accounting, jitter position, cache residency). It
// errors when the configurations differ — a restored run on a different
// cluster would silently diverge.
func (s *Sim) Restore(st SimState) error {
	if s.Cfg != st.Cfg {
		return fmt.Errorf("cluster: restoring snapshot onto a differently-configured sim")
	}
	s.clock = st.Clock
	s.Acct = st.Acct
	s.src = NewCountingSource(s.Cfg.Seed)
	s.src.Skip(st.RNGDraws)
	s.rng = rand.New(s.src)
	s.Cache.Restore(st.Cache)
	return nil
}

// Advance moves the clock forward by d (which must be non-negative).
func (s *Sim) Advance(d Seconds) {
	if d < 0 {
		panic(fmt.Sprintf("cluster: negative advance %g", d))
	}
	s.clock += d
}

// JobInit charges the per-job driver overhead (Spark job submission). The
// paper attributes ~4s of its speculation overhead to exactly this.
func (s *Sim) JobInit() {
	s.Acct.Jobs++
	s.Advance(s.Cfg.JobInitSec)
}

// jitter returns a multiplicative straggler factor in [1, 1+JitterFrac).
func (s *Sim) jitter() float64 {
	if s.Cfg.JitterFrac == 0 {
		return 1
	}
	return 1 + s.Cfg.JitterFrac*s.rng.Float64()
}

// CostReadPartition returns the IO cost of scanning one whole partition,
// consulting and updating the cache: a seek plus one pageIO per page, from
// memory when the partition is resident and from disk (then admitted to
// cache) when not.
func (s *Sim) CostReadPartition(p storage.Partition, l storage.Layout) Seconds {
	c, hit := s.read(p, p.Pages(l))
	if !hit {
		s.Cache.Insert(p.ID, p.Bytes)
	}
	return c
}

// CostReadBytes returns the IO cost of reading `bytes` from within a
// partition (a partial, random access as done by the random-partition
// sampler): one seek plus the covering pages, at memory or disk speed
// depending on residency. The partition is not admitted to cache on a miss —
// random access of a few units does not materialize a block.
func (s *Sim) CostReadBytes(p storage.Partition, l storage.Layout, bytes int64) Seconds {
	bytes = min(bytes, p.Bytes)
	c, _ := s.read(p, (bytes+l.PageBytes-1)/l.PageBytes)
	return c
}

// read charges one access of pages pages of p at the speed its residency
// gives (PriceRead) and reports whether p was resident.
func (s *Sim) read(p storage.Partition, pages int64) (Seconds, bool) {
	hit := s.Cache.Contains(p.ID)
	s.Acct.Seeks++
	if hit {
		s.Acct.MemPages += pages
	} else {
		s.Acct.DiskPages += pages
	}
	c := s.Cfg.PriceRead(pages, hit)
	s.Acct.IOSeconds += c
	return c, hit
}

// CostCPU returns the CPU cost of ops multiply-adds plus per-unit UDF
// overhead over units data units, at kernel tier t (PriceCPU): the driver's
// operators, Stage and the samplers' passes run at RowTier, a compute pass
// at the tier gd.KernelTier resolves for the plan.
func (s *Sim) CostCPU(t Tier, units int, ops float64) Seconds {
	s.Acct.UnitsSeen += int64(units)
	c := s.Cfg.PriceCPU(t, units, ops)
	s.Acct.CPUSeconds += c
	return c
}

// CostParse returns the CPU cost of parsing bytes of raw input (the Transform
// operator's work) over units data units.
func (s *Sim) CostParse(units int, bytes int64) Seconds {
	s.Acct.UnitsSeen += int64(units)
	c := s.Cfg.PriceParse(units, float64(bytes))
	s.Acct.CPUSeconds += c
	return c
}

// RunWaves schedules the given per-task costs onto the cluster in waves of
// Cap() parallel tasks (longest-processing-time first, matching a work-
// stealing scheduler closely enough) and advances the clock by the resulting
// makespan plus per-wave overhead. Jitter is applied per task. It returns the
// makespan.
func (s *Sim) RunWaves(taskCosts []Seconds) Seconds {
	if len(taskCosts) == 0 {
		return 0
	}
	cap := s.Cfg.Cap()
	if len(taskCosts) > len(s.waveBuf) || cap > len(s.coreBuf) {
		buf := make([]Seconds, len(taskCosts)+cap)
		s.waveBuf, s.coreBuf = buf[:len(taskCosts)], buf[len(taskCosts):]
	}
	jittered := s.waveBuf[:len(taskCosts)]
	for i, t := range taskCosts {
		jittered[i] = t * Seconds(s.jitter())
	}
	// Descending sort; a different sort algorithm cannot change the sorted
	// value sequence (ties collapse), so the schedule is unaffected.
	slices.SortFunc(jittered, func(a, b Seconds) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		default:
			return 0
		}
	})
	// Greedy LPT assignment onto cap cores.
	cores := s.coreBuf[:cap]
	for i := range cores {
		cores[i] = 0
	}
	for _, t := range jittered {
		// Find least-loaded core.
		min := 0
		for i := 1; i < cap; i++ {
			if cores[i] < cores[min] {
				min = i
			}
		}
		cores[min] += t
	}
	var makespan Seconds
	for _, c := range cores {
		if c > makespan {
			makespan = c
		}
	}
	waves := (len(taskCosts) + cap - 1) / cap
	makespan += Seconds(waves) * s.Cfg.WaveOverheadSec
	s.Acct.Tasks += int64(len(taskCosts))
	s.Acct.Waves += int64(waves)
	s.Advance(makespan)
	return makespan
}

// RunLocal executes a centralized task (the "Java operator" path in ML4all's
// hybrid mode): the cost is charged directly on the driver with jitter but no
// wave overhead.
func (s *Sim) RunLocal(cost Seconds) Seconds {
	c := cost * Seconds(s.jitter())
	s.Acct.Tasks++
	s.Advance(c)
	return c
}

// Transfer moves bytes across the network in the given number of aggregation
// rounds (1 for a flat reduce, log2(executors) for a tree aggregate) and
// advances the clock. It returns the elapsed network time.
func (s *Sim) Transfer(bytes int64, rounds int) Seconds {
	if bytes <= 0 {
		return 0
	}
	c := s.Cfg.PriceNet(bytes, rounds)
	s.Acct.NetBytes += bytes
	s.Acct.Packets += (bytes + s.Cfg.PacketBytes - 1) / s.Cfg.PacketBytes
	s.Acct.NetSeconds += c
	s.Advance(c)
	return c
}
