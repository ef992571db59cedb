package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// Admission control bounds how much prediction work a predictor accepts at
// once. The limit is expressed in rows (the unit the kernels price in), not
// requests, so a thousand one-row calls and one thousand-row call count the
// same. When a request would push the in-flight total past the limit, it is
// refused with 429 and a Retry-After derived from the observed service rate
// — shedding load at the door instead of queueing unboundedly and timing
// every caller out.
const (
	// maxInFlightRows is the hard cap on rows admitted but not yet answered.
	maxInFlightRows = 4096
	// targetLatency is the queueing-delay budget. Once the service rate is
	// known, the effective limit tightens to rate·targetLatency — the
	// deepest backlog that still drains within the budget (Little's law).
	targetLatency = 50 * time.Millisecond

	// rateAlpha is the EWMA weight of each new service-rate sample. Samples
	// arrive per kernel pass, so the estimate tracks tens of passes — fast
	// enough to follow a model switch, smooth enough that one cold pass
	// doesn't collapse the admission limit.
	rateAlpha = 0.2
)

// admitter implements the admission decision. All state is atomic: admit sits
// on the predict hot path ahead of any locking.
type admitter struct {
	inFlight *atomic.Int64  // rows admitted, response not yet built
	rejected *atomic.Uint64 // requests refused
	rateBits atomic.Uint64  // EWMA service rate, rows/sec, as float64 bits
}

func newAdmitter(counters *Counters) *admitter {
	a := &admitter{}
	if counters != nil {
		// Share the counters' gauges so /metrics reports admission state
		// without a second set of atomics on the hot path.
		a.inFlight = &counters.inFlightRows
		a.rejected = &counters.rejected
	} else {
		a.inFlight = new(atomic.Int64)
		a.rejected = new(atomic.Uint64)
	}
	return a
}

// rate returns the current service-rate estimate in rows/sec (0 until the
// first pass completes).
func (a *admitter) rate() float64 {
	return math.Float64frombits(a.rateBits.Load())
}

// observeRate folds one completed kernel pass (rows scored in d) into the
// service-rate estimate.
func (a *admitter) observeRate(rows int, d time.Duration) {
	if rows <= 0 || d <= 0 {
		return
	}
	sample := float64(rows) / d.Seconds()
	for {
		old := a.rateBits.Load()
		est := math.Float64frombits(old)
		if est == 0 {
			est = sample // first sample seeds the estimate
		} else {
			est += rateAlpha * (sample - est)
		}
		if a.rateBits.CompareAndSwap(old, math.Float64bits(est)) {
			return
		}
	}
}

// limit returns the effective in-flight row budget: the hard cap, tightened
// to rate·targetLatency once a service rate is known.
func (a *admitter) limit() int64 {
	if r := a.rate(); r > 0 {
		if l := int64(r * targetLatency.Seconds()); l >= 1 && l < maxInFlightRows {
			return l
		}
	}
	return maxInFlightRows
}

// admit reserves n rows of the in-flight budget. ok=false means the request
// must be refused; retryAfter is how long the present backlog needs to drain
// below the limit at the observed rate (clamped to ≥1s, the header's
// resolution). An idle server always admits — even a request larger than the
// whole budget — so the limit can never wedge all traffic out.
func (a *admitter) admit(n int) (retryAfter time.Duration, ok bool) {
	cur := a.inFlight.Add(int64(n))
	if cur == int64(n) {
		return 0, true
	}
	limit := a.limit()
	if cur <= limit {
		return 0, true
	}
	a.inFlight.Add(-int64(n))
	a.rejected.Add(1)
	retryAfter = time.Second
	if r := a.rate(); r > 0 {
		if d := time.Duration(float64(cur-limit) / r * float64(time.Second)); d > retryAfter {
			retryAfter = d
		}
	}
	return retryAfter, false
}

// done releases n admitted rows once their response is built.
func (a *admitter) done(n int) {
	a.inFlight.Add(-int64(n))
}
