package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count). It returns NaN for an empty slice so a missing measurement
// cannot pass for a zero.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(len(s), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// rank is the nearest-rank position (1-based) of the q-quantile in a sorted
// sample of n; the epsilon keeps 0.9·100 from rounding up to rank 91.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// beyond is how many samples of n lie above the q-quantile. A sample supports
// quoting a percentile when at least ten lie beyond it (the choosing-metrics
// rule); secondQuantiles drops the seconds that do not.
func beyond(n int, q float64) int { return n - rank(n, q) }

// worsening returns by what share of base the value got worse (positive =
// worse), honouring the metric's direction.
func worsening(base, value float64, lowerIsBetter bool) float64 {
	if base == 0 {
		if value == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (value - base) / math.Abs(base)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// disagreement is by what share two readings of one metric from the same code
// differ, whichever ran first: the larger of the two worsenings, i.e. the
// worse reading's distance from the better one as a share of the better one.
// The repeat check compares passes with it, because a disturbed first pass is
// as much a failure of steadiness as a disturbed second one.
func disagreement(a, b float64, lowerIsBetter bool) float64 {
	return math.Max(worsening(a, b, lowerIsBetter), worsening(b, a, lowerIsBetter))
}

// openLoopSample is one request of an open-loop schedule: when it was due,
// when the generator actually sent it, and when its answer arrived.
type openLoopSample struct {
	Due, Sent, Done time.Duration // offsets from the phase start
	Spun            time.Duration // how long the generator busy-waited for Due
}

// dueAt is the schedule of an open loop at rate requests per second: request
// i is due i/rate after the phase starts, whatever happened to request i-1.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// latency is measured from the due time, so a stall in the server (or the
// generator) is charged to every request it delayed, not hidden by the
// generator slowing down with it.
func (s openLoopSample) latency() time.Duration { return s.Done - s.Due }

// lateness is how far behind its schedule the generator sent the request.
func (s openLoopSample) lateness() time.Duration {
	if s.Sent <= s.Due {
		return 0
	}
	return s.Sent - s.Due
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
