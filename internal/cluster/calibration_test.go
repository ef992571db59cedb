package cluster

import (
	"testing"

	"ml4all/internal/linalg"
)

// TestFastMathFlopFracPerBackend pins the CPU price of every kernel tier on
// both fast backends: RowTier pays FlopSec and UnitOverheadSec whole, the
// block tiers the post-batching unit overhead, and FastTier's flop fraction
// is the executing backend's — 0.50 with SIMD dispatch live, 0.70 on the
// portable fast-go loops — switched by SetSIMD at run time. The SIMD rows
// are skipped on hosts (and noasm builds) without a backend, where the
// question does not arise.
func TestFastMathFlopFracPerBackend(t *testing.T) {
	if FastMathFlopFracSIMD >= FastMathFlopFrac {
		t.Fatalf("SIMD frac %v should undercut fast-go frac %v", FastMathFlopFracSIMD, FastMathFlopFrac)
	}
	cfg := Default()
	const units, ops = 1000, 1e6
	cases := []struct {
		simd       bool
		tier       Tier
		flop, unit Seconds
	}{
		{false, RowTier, 1, 1},
		{false, BlockTier, 1, 0.25},
		{false, FastTier, 0.70, 0.25},
		{true, RowTier, 1, 1},
		{true, BlockTier, 1, 0.25},
		{true, FastTier, 0.50, 0.25},
	}
	prev := linalg.SetSIMD(false)
	defer linalg.SetSIMD(prev)
	for _, tc := range cases {
		if tc.simd && !linalg.SIMDAvailable() {
			t.Logf("tier %d with SIMD: skipped, no backend (features: %s)", tc.tier, linalg.CPUFeatures())
			continue
		}
		linalg.SetSIMD(tc.simd)
		want := Seconds(ops)*cfg.FlopSec*tc.flop + Seconds(units)*cfg.UnitOverheadSec*tc.unit
		if got := cfg.PriceCPU(tc.tier, units, ops); got != want {
			t.Errorf("simd=%v tier %d: PriceCPU = %v, want %v", tc.simd, tc.tier, got, want)
		}
	}
}

// TestCostComputeFastTracksBackend pins that the simulator charges the fast
// tier by the backend executing right now: flipping SIMD dispatch off must
// raise the charged flop cost to the portable tier's, and back, and the
// charge lands in the accounting. Skipped on hosts without a backend, where
// the question does not arise.
func TestCostComputeFastTracksBackend(t *testing.T) {
	if !linalg.SIMDAvailable() {
		t.Skipf("no SIMD backend (features: %s)", linalg.CPUFeatures())
	}
	cfg := Default()
	const units, ops = 1000, 1e6

	prev := linalg.SetSIMD(true)
	defer linalg.SetSIMD(prev)
	simSIMD := New(cfg)
	costSIMD := simSIMD.CostCPU(FastTier, units, ops)

	linalg.SetSIMD(false)
	simGo := New(cfg)
	costGo := simGo.CostCPU(FastTier, units, ops)

	wantSIMD := Seconds(ops)*cfg.FlopSec*Seconds(FastMathFlopFracSIMD) +
		Seconds(units)*cfg.UnitOverheadSec*ComputeUnitOverheadFrac
	wantGo := Seconds(ops)*cfg.FlopSec*Seconds(FastMathFlopFrac) +
		Seconds(units)*cfg.UnitOverheadSec*ComputeUnitOverheadFrac
	if costSIMD != wantSIMD || simSIMD.Acct.CPUSeconds != wantSIMD || simSIMD.Acct.UnitsSeen != units {
		t.Fatalf("SIMD-backend cost %v (acct %+v), want %v", costSIMD, simSIMD.Acct, wantSIMD)
	}
	if costGo != wantGo || simGo.Acct.CPUSeconds != wantGo || simGo.Acct.UnitsSeen != units {
		t.Fatalf("fast-go cost %v (acct %+v), want %v", costGo, simGo.Acct, wantGo)
	}
	if costSIMD >= costGo {
		t.Fatalf("SIMD cost %v should undercut fast-go cost %v", costSIMD, costGo)
	}
}
