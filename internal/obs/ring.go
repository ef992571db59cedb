// Package obs is the observability layer: iteration telemetry (Ring and the
// observed curve), tracing spans (Trace), live job event streams (EventLog),
// the persistent run ledger (Ledger) and build metadata (Build). It is
// zero-dependency by design — standard library plus the engine/estimator/fault
// internals it observes — and every type is safe for the access pattern its
// producer uses. The contract with the hot paths: a nil observer costs the
// engine one branch per iteration and the serving predict path zero
// allocations (the root package's zerotax_test.go pins both).
package obs

import (
	"math"
	"sync"
	"time"

	"ml4all/internal/engine"
	"ml4all/internal/estimator"
)

// maxCurvePoints bounds the observed-curve memory: when the monotone
// sequence outgrows it, every other interior point is dropped (the
// subsequence stays monotone, the fit barely moves).
const maxCurvePoints = 4096

// Ring is the iteration-telemetry observer implementing engine.Observer: it
// accumulates the wall time between the iterations it observes — what the
// ledger record's wall_seconds reads. The run's convergence curve is not
// kept here: the trainer's own deltas are that record (see FoldCurve). All
// methods are safe for concurrent use; ObserveIter is only ever called from
// the single driver goroutine of a run, readers may be anyone.
type Ring struct {
	mu   sync.Mutex
	last time.Time
	wall time.Duration
}

// NewRing returns an empty Ring. Its argument is ignored: it remains only
// so existing callers keep compiling.
func NewRing(_ int) *Ring { return &Ring{} }

// ObserveIter implements engine.Observer. The Ring diffs the wall clock
// itself so the trainer's hot path never reads a clock when no observer is
// set.
func (r *Ring) ObserveIter(engine.IterEvent) {
	now := time.Now()
	r.mu.Lock()
	if !r.last.IsZero() {
		r.wall += now.Sub(r.last)
	}
	r.last = now
	r.mu.Unlock()
}

// WallSeconds returns the cumulative wall time between observed iterations.
func (r *Ring) WallSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wall.Seconds()
}

// FoldCurve extends curve, the observed monotone T(ε) curve of deltas[:done],
// with deltas[done:] and returns it; deltas[i] is iteration i+1's
// convergence delta, as engine.Trainer.Deltas holds them. The new points are
// estimator.MonotoneSequence's over deltas[done:] that improve on the curve's
// last error, so FoldCurve(nil, d, 0) is MonotoneSequence(d) until
// maxCurvePoints; past it, every other interior point is dropped as each
// improvement arrives. The fold is incremental — folding a run's deltas in
// any number of pieces yields the curve of folding them at once — so a
// caller may feed it only what is new, and a run resumed from a checkpoint
// gets its whole curve from its restored delta history. The result is the
// empirical counterpart of the estimator's speculative sequence, fit-ready
// for FitInverse.
func FoldCurve(curve []estimator.Point, deltas []float64, done int) []estimator.Point {
	best := math.Inf(1)
	if len(curve) > 0 {
		best = curve[len(curve)-1].Err
	}
	for _, p := range estimator.MonotoneSequence(deltas[done:]) {
		if p.Err >= best {
			continue // an improvement within the piece, not on the curve
		}
		curve = append(curve, estimator.Point{Iter: p.Iter + done, Err: p.Err})
		if len(curve) > maxCurvePoints {
			kept := curve[:0]
			for k, p := range curve {
				if k%2 == 0 || k == len(curve)-1 {
					kept = append(kept, p)
				}
			}
			curve = kept
		}
	}
	return curve
}

// CurveETA fits T(ε) = a/ε to an observed curve and projects the remaining
// iterations from the curve's current error level down to tol. It returns
// the fitted a and the projection; remaining is -1 when no estimate is
// possible (empty or unfittable curve, or an infinite projection).
func CurveETA(curve []estimator.Point, tol float64) (a, remaining float64) {
	if len(curve) == 0 {
		return 0, -1
	}
	a, err := estimator.FitInverse(curve)
	if err != nil {
		return 0, -1
	}
	rem := estimator.RemainingIterations(a, tol, curve[len(curve)-1].Err)
	if math.IsInf(rem, 0) {
		return a, -1
	}
	return a, rem
}

// Finite maps NaN and ±Inf to -1 so values derived from fits (which use
// +Inf as "unfittable") stay JSON-encodable; finite values pass through
// bit-exactly.
func Finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
