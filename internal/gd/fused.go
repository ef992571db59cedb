package gd

import (
	"fmt"
	"math"

	"ml4all/internal/linalg"
)

// DeltaNorm names the norm of w_new - w_prev a NormConverger reports.
type DeltaNorm int

// The norms of the stock convergers.
const (
	NormL1 DeltaNorm = iota + 1
	NormL2
)

// NormConverger is the optional declaration that a Converger's delta is
// nothing but a norm of the weight difference (no context state read or
// written), which is what lets a FusedUpdater compute it while it writes the
// new weights.
type NormConverger interface {
	Converger
	DeltaNorm() DeltaNorm
}

// DeltaNorm implements NormConverger.
func (L1Converger) DeltaNorm() DeltaNorm { return NormL1 }

// DeltaNorm implements NormConverger.
func (L2Converger) DeltaNorm() DeltaNorm { return NormL2 }

// FusedUpdater is the optional single-pass extension of Updater, the driver
// side's counterpart of BatchComputer: when a plan pairs one with a
// NormConverger, the engine makes ONE UpdateConverge call per iteration
// instead of zeroing the accumulator, Update, Converge and a finite check —
// one walk over the model instead of one per operator. Plans whose Updater or
// Converger is a custom UDF (or SVRG, or line search) keep the
// operator-by-operator path transparently.
//
// Contract: UpdateConverge must leave ctx and return as w exactly what
// Update would; delta must be what the NormConverger of that norm returns
// for (w, the weights ctx held on entry), summed in index order; finite must
// be w.IsFinite() — all bit for bit, which the engine's fused-step test
// enforces against the operators. It consumes acc: the first len(w)
// components are zero on return, and the engine hands the buffer to the next
// iteration's Compute without clearing it again.
type FusedUpdater interface {
	Updater
	UpdateConverge(acc linalg.Vector, ctx *Context, norm DeltaNorm) (w linalg.Vector, delta float64, finite bool, err error)
}

// UpdateConverge implements FusedUpdater: Update's loop with the converger's
// term added per component, one linalg kernel per norm (linalg.StepL1,
// linalg.StepL2Sq — a branch on the norm inside the walk would cost a fifth
// of it, which the in-order delta sum already bounds).
func (up GradientUpdater) UpdateConverge(acc linalg.Vector, ctx *Context, norm DeltaNorm) (linalg.Vector, float64, bool, error) {
	n := ctx.BatchSize
	if n <= 0 {
		return nil, 0, false, fmt.Errorf("gd: GradientUpdater with batch size %d", n)
	}
	inv := 1 / float64(n)
	old := ctx.Weights
	w := ctx.TakeSpare(len(old))
	var delta float64
	if norm == NormL2 {
		delta = math.Sqrt(linalg.StepL2Sq(w, old, acc, inv, up.Reg.Lambda, -ctx.Step))
	} else {
		delta = linalg.StepL1(w, old, acc, inv, up.Reg.Lambda, -ctx.Step)
	}
	ctx.Weights = w
	// A non-finite component of w (or of old) makes its difference, and with
	// it delta, non-finite, so a finite delta proves w finite; only a delta
	// that overflowed or diverged needs the look at w itself.
	finite := !math.IsInf(delta, 0) && !math.IsNaN(delta) || w.IsFinite()
	return w, delta, finite, nil
}
