package cluster

import (
	"testing"

	"ml4all/internal/linalg"
)

// TestFastMathFlopFracPerBackend pins the per-backend pricing table: the
// SIMD backend is priced cheaper per flop than the portable fast tier, and
// unknown backends degrade to the conservative portable figure.
func TestFastMathFlopFracPerBackend(t *testing.T) {
	if got := FastMathFlopFracFor(linalg.BackendFastGo); got != FastMathFlopFrac {
		t.Fatalf("fast-go frac = %v, want %v", got, FastMathFlopFrac)
	}
	if got := FastMathFlopFracFor(linalg.BackendSIMDAVX2); got != FastMathFlopFracSIMD {
		t.Fatalf("avx2 frac = %v, want %v", got, FastMathFlopFracSIMD)
	}
	if FastMathFlopFracSIMD >= FastMathFlopFrac {
		t.Fatalf("SIMD frac %v should undercut fast-go frac %v", FastMathFlopFracSIMD, FastMathFlopFrac)
	}
	if got := FastMathFlopFracFor("no-such-backend"); got != FastMathFlopFrac {
		t.Fatalf("unknown backend frac = %v, want %v", got, FastMathFlopFrac)
	}
}

// TestCostComputeFastTracksBackend pins that the simulator prices the fast
// tier by the backend executing right now: flipping SIMD dispatch off must
// raise the charged flop cost to the portable tier's, and back. Skipped on
// hosts without a backend, where the question does not arise.
func TestCostComputeFastTracksBackend(t *testing.T) {
	if !linalg.SIMDAvailable() {
		t.Skipf("no SIMD backend (features: %s)", linalg.CPUFeatures())
	}
	cfg := Default()
	const units, ops = 1000, 1e6

	prev := linalg.SetSIMD(true)
	defer linalg.SetSIMD(prev)
	simSIMD := New(cfg)
	costSIMD := simSIMD.CostComputeFast(units, ops)

	linalg.SetSIMD(false)
	simGo := New(cfg)
	costGo := simGo.CostComputeFast(units, ops)

	wantSIMD := Seconds(ops)*cfg.FlopSec*Seconds(FastMathFlopFracSIMD) +
		Seconds(units)*cfg.UnitOverheadSec*ComputeUnitOverheadFrac
	wantGo := Seconds(ops)*cfg.FlopSec*Seconds(FastMathFlopFrac) +
		Seconds(units)*cfg.UnitOverheadSec*ComputeUnitOverheadFrac
	if costSIMD != wantSIMD {
		t.Fatalf("SIMD-backend cost %v, want %v", costSIMD, wantSIMD)
	}
	if costGo != wantGo {
		t.Fatalf("fast-go cost %v, want %v", costGo, wantGo)
	}
	if costSIMD >= costGo {
		t.Fatalf("SIMD cost %v should undercut fast-go cost %v", costSIMD, costGo)
	}
}
