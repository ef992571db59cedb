package costmodel

import (
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/storage"
)

// TestOneUnitOnePrice holds the model's per-unit terms to what the simulator
// charges for one unit of the same work, bit for bit: compute at every
// kernel tier (with and without a lazy parse), a partition scan cold and
// warm, a random-access read and a network transfer, on both fast backends.
// The op grid catches a tier's flop fraction applied in another order on
// one side: ops·(FlopSec·0.70) and (ops·FlopSec)·0.70 differ in the last bit
// for about a quarter of these counts.
func TestOneUnitOnePrice(t *testing.T) {
	cfg := cluster.Default()
	cfg.JitterFrac = 0
	const pageBytes = 1 << 10
	eager, lazy := gd.Plan{Transform: gd.Eager}, gd.Plan{Transform: gd.Lazy}
	tiers := []cluster.Tier{cluster.RowTier, cluster.BlockTier, cluster.FastTier}

	prev := linalg.SetSIMD(false)
	defer linalg.SetSIMD(prev)
	for _, simd := range []bool{false, true} {
		linalg.SetSIMD(simd)
		backend := linalg.FastBackend()
		for _, tier := range tiers {
			for ops := 8.0; ops <= 6005; ops += 3 {
				m := &Model{Cfg: cfg}
				s := cluster.New(cfg)
				if got, want := m.unitCost(eager, ops, tier), s.CostCPU(tier, 1, ops); got != want {
					t.Fatalf("%s tier %d ops %g: model %v, sim %v", backend, tier, ops, got, want)
				}
				for _, bytes := range []int64{1, 37, 1000, 4097} {
					m.Stats.AvgUnitBytes = float64(bytes)
					want := s.CostParse(1, bytes)
					want += s.CostCPU(tier, 1, ops)
					if got := m.unitCost(lazy, ops, tier); got != want {
						t.Fatalf("%s tier %d ops %g bytes %d lazy: model %v, sim %v", backend, tier, ops, bytes, got, want)
					}
				}
			}
		}
	}

	l := storage.Layout{PartitionBytes: 1 << 30, PageBytes: pageBytes}
	for pages := int64(1); pages <= 4000; pages += 7 {
		p := storage.Partition{ID: 1, Bytes: pages * pageBytes}
		m := &Model{Cfg: cfg, Stats: DataStats{Partitions: 1, PartBytes: p.Bytes, PageBytes: pageBytes, FitsInCache: true}}
		s := cluster.New(cfg)
		if got, want := m.CIO(false), s.CostReadPartition(p, l); got != want {
			t.Fatalf("%d pages cold: model %v, sim %v", pages, got, want)
		}
		if got, want := m.CIO(true), s.CostReadPartition(p, l); got != want {
			t.Fatalf("%d pages warm: model %v, sim %v", pages, got, want)
		}
		// One random-partition draw of a unit of these many bytes, resident.
		bytes := pages*pageBytes - 3
		m.Stats.AvgUnitBytes = float64(bytes)
		if got, want := m.sampleCost(gd.Plan{Sampling: gd.RandomPartition, BatchSize: 1}), s.CostReadBytes(p, l, bytes); got != want {
			t.Fatalf("%d-byte random read: model %v, sim %v", bytes, got, want)
		}
	}

	m := &Model{Cfg: cfg}
	for bytes := int64(0); bytes <= 1<<20; bytes = bytes*3 + 1 {
		for rounds := 0; rounds <= 3; rounds++ {
			if got, want := m.CNT(bytes, rounds), cluster.New(cfg).Transfer(bytes, rounds); got != want {
				t.Fatalf("%d bytes in %d rounds: model %v, sim %v", bytes, rounds, got, want)
			}
		}
	}
}
