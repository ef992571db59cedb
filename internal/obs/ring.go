// Package obs is the observability layer: iteration telemetry (Ring),
// tracing spans (Trace), live job event streams (EventLog), the persistent
// run ledger (Ledger) and build metadata (Build). It is zero-dependency by
// design — standard library plus the engine/estimator/fault internals it
// observes — and every type is safe for the access pattern its producer
// uses. The contract with the hot paths: a nil observer costs the engine one
// branch per iteration and the serving predict path zero allocations (the
// root package's zerotax_test.go pins both).
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
// accumulates, across the whole run, the observed monotone T(ε) curve
// (bounded by maxCurvePoints) and the total wall time — what the ledger
// record and the live ETA read. All methods are safe for concurrent use;
// ObserveIter is only ever called from the single driver goroutine of a
// run, readers may be anyone.
type Ring struct {
	mu    sync.Mutex
	last  time.Time
	wall  time.Duration
	curve []estimator.Point
	best  float64
}

// NewRing returns an empty Ring. Its argument is ignored: it remains only
// so existing callers keep compiling.
func NewRing(_ int) *Ring {
	return &Ring{best: math.Inf(1)}
}

// ObserveIter implements engine.Observer. The Ring diffs the wall clock
// itself so the trainer's hot path never reads a clock when no observer is
// set.
func (r *Ring) ObserveIter(ev engine.IterEvent) {
	now := time.Now()
	r.mu.Lock()
	if !r.last.IsZero() {
		r.wall += now.Sub(r.last)
	}
	r.last = now
	r.extendCurve(ev.Iter, ev.Delta)
	r.mu.Unlock()
}

// extendCurve adds iteration iter's delta d to the monotone curve when it
// improves on the best so far. The caller holds mu.
func (r *Ring) extendCurve(iter int, d float64) {
	if d < r.best && d > 0 && !math.IsInf(d, 0) {
		r.best = d
		r.curve = append(r.curve, estimator.Point{Iter: iter, Err: d})
		if len(r.curve) > maxCurvePoints {
			kept := r.curve[:0]
			for i, p := range r.curve {
				if i%2 == 0 || i == len(r.curve)-1 {
					kept = append(kept, p)
				}
			}
			r.curve = kept
		}
	}
}

// RestoreCurve rebuilds the curve from a resumed run's delta history
// (deltas[i] is iteration i+1's), so a run reopened from a checkpoint
// accumulates the curve an uninterrupted run would. The wall clock is left
// alone: it describes only what this ring observed.
func (r *Ring) RestoreCurve(deltas []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.curve, r.best = nil, math.Inf(1)
	for i, d := range deltas {
		r.extendCurve(i+1, d)
	}
}

// Curve returns the observed monotone T(ε) sequence accumulated over the
// whole run (a copy) — the empirical counterpart of the estimator's
// speculative sequence, fit-ready for FitInverse.
func (r *Ring) Curve() []estimator.Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]estimator.Point(nil), r.curve...)
}

// WallSeconds returns the cumulative wall time between observed iterations.
func (r *Ring) WallSeconds() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wall.Seconds()
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
