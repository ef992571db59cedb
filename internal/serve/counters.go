package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counters aggregates per-endpoint request statistics plus prediction
// pipeline totals, rendered at /metrics in the Prometheus text exposition
// format. The write side is lock-free: routes are registered once (at
// handler construction), after which every observation is a handful of
// atomic adds — cheap enough for the predict hot path at traffic. Latencies
// accumulate into fixed log-spaced histogram buckets, from which /metrics
// derives p50/p95/p99 per route; totals are monotonic — rates are the
// scraper's job.
type Counters struct {
	mu     sync.Mutex // guards route/phase registration only; stats are atomic
	routes map[string]*routeStats

	// phases aggregates tracing spans (optimize, speculate, train,
	// checkpoint, recover, predict-batch) into the same lock-free histogram
	// machinery the routes use, rendered as ml4all_phase_seconds.
	phases map[string]*routeStats

	predictRows    atomic.Uint64 // rows scored across all predict calls
	predictBatches atomic.Uint64 // predict calls that reached the kernels
	rejected       atomic.Uint64 // requests refused by admission control
	inFlightRows   atomic.Int64  // rows admitted, response not yet built

	// Durability/recovery counters — how often the fault machinery actually
	// fired, so degradation is observable rather than silent.
	ckptWritten       atomic.Uint64 // durable checkpoint frames written
	ckptVerified      atomic.Uint64 // frames that passed their checksum on resume
	ckptCorrupt       atomic.Uint64 // frames discarded as corrupt/unreadable
	registryFallbacks atomic.Uint64 // model versions entombed as corrupt on load
	recoveredPanics   atomic.Uint64 // panics converted to job/request errors
	deadlineExpired   atomic.Uint64 // predicts abandoned on context expiry

	// Run-ledger counters: records appended to jobs/ledger.jsonl, and
	// append failures (the job still completes — a ledger error degrades
	// history, not training).
	ledgerRecords atomic.Uint64
	ledgerErrors  atomic.Uint64
}

// histBuckets is the bucket count of the per-route latency histograms:
// bucket i counts observations with latency ≤ 1µs·2^i, the last bucket is
// the +Inf catch-all. 28 doublings span 1µs to ~134s — the full range an
// HTTP request can plausibly occupy — at a fixed 2x resolution, which is
// what makes the derived percentiles deterministic: a quantile is always
// reported as a bucket's upper bound, never an interpolation over racing
// counts.
const histBuckets = 28

// bucketBound returns bucket i's upper bound in seconds.
func bucketBound(i int) float64 { return 1e-6 * float64(uint64(1)<<uint(i)) }

// bucketOf maps a duration to its histogram bucket.
func bucketOf(d time.Duration) int {
	b := 0
	for ns := int64(1000); b < histBuckets-1 && d.Nanoseconds() > ns; b++ {
		ns <<= 1
	}
	return b
}

// routeStats is one route's statistics; every field is atomic, so concurrent
// observations never contend on a lock.
type routeStats struct {
	count    atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	nanos    atomic.Int64  // total latency
	maxNanos atomic.Int64
	buckets  [histBuckets]atomic.Uint64
}

// observe records one served request.
func (rs *routeStats) observe(d time.Duration, isErr bool) {
	rs.count.Add(1)
	if isErr {
		rs.errors.Add(1)
	}
	ns := d.Nanoseconds()
	rs.nanos.Add(ns)
	for {
		old := rs.maxNanos.Load()
		if ns <= old || rs.maxNanos.CompareAndSwap(old, ns) {
			break
		}
	}
	rs.buckets[bucketOf(d)].Add(1)
}

// quantile returns the q-quantile latency in seconds: the upper bound of the
// first bucket at which the cumulative count reaches q·total (0 when the
// route has no observations). Reporting bucket bounds keeps the output
// deterministic for a fixed observation multiset, regardless of arrival
// order.
func (rs *routeStats) quantile(q float64) float64 {
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = rs.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketBound(i)
		}
	}
	return bucketBound(histBuckets - 1)
}

func newCounters() *Counters {
	return &Counters{routes: map[string]*routeStats{}, phases: map[string]*routeStats{}}
}

// PredictTotals is a point-in-time snapshot of the prediction pipeline's
// throughput counters — the /metrics ml4all_predict_* series as numbers, for
// harnesses that read rather than scrape.
type PredictTotals struct {
	Rows     uint64 // rows scored across all predict calls
	Batches  uint64 // predict calls that reached the kernels
	Rejected uint64 // requests refused by admission control

	// CoalescedRows and CoalescedBatches are always 0: every call scores its
	// own rows in one kernel pass, so no pass serves more than one request.
	// They remain only because the bench/ harness still reads them; the
	// next change allowed to edit bench/ removes them.
	CoalescedRows, CoalescedBatches uint64
}

// PredictTotals snapshots the prediction counters.
func (c *Counters) PredictTotals() PredictTotals {
	return PredictTotals{
		Rows:     c.predictRows.Load(),
		Batches:  c.predictBatches.Load(),
		Rejected: c.rejected.Load(),
	}
}

// route returns (registering if needed) a route's stats record. Handlers
// resolve their record once at construction, making observe lock-free.
func (c *Counters) route(name string) *routeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.routes[name]
	if rs == nil {
		rs = &routeStats{}
		c.routes[name] = rs
	}
	return rs
}

// phase returns (registering if needed) a phase's stats record; like route,
// callers on hot paths resolve it once so observing is pure atomics.
func (c *Counters) phase(name string) *routeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.phases[name]
	if rs == nil {
		rs = &routeStats{}
		c.phases[name] = rs
	}
	return rs
}

// observePredict records one prediction call's row count.
func (c *Counters) observePredict(rows int) {
	c.predictBatches.Add(1)
	c.predictRows.Add(uint64(rows))
}

// deadlineExpire tolerates a nil receiver: a Predictor may run with no
// Counters (NewPredictor's contract), and its recording sites stay
// unconditional.
func (c *Counters) deadlineExpire() {
	if c != nil {
		c.deadlineExpired.Add(1)
	}
}

// FaultTotals is a point-in-time snapshot of the durability/recovery
// counters — the /metrics ml4all_checkpoints_*/ml4all_recovered_* series as
// numbers, for tests and harnesses.
type FaultTotals struct {
	CheckpointsWritten  uint64
	CheckpointsVerified uint64
	CheckpointsCorrupt  uint64
	RegistryFallbacks   uint64
	RecoveredPanics     uint64
	DeadlineExpired     uint64
}

// FaultTotals snapshots the durability counters.
func (c *Counters) FaultTotals() FaultTotals {
	return FaultTotals{
		CheckpointsWritten:  c.ckptWritten.Load(),
		CheckpointsVerified: c.ckptVerified.Load(),
		CheckpointsCorrupt:  c.ckptCorrupt.Load(),
		RegistryFallbacks:   c.registryFallbacks.Load(),
		RecoveredPanics:     c.recoveredPanics.Load(),
		DeadlineExpired:     c.deadlineExpired.Load(),
	}
}

// quantiles reported per route, ascending — the fixed field order of the
// exposition.
var reportedQuantiles = [...]struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}}

// header writes a metric family's # HELP and # TYPE comment pair. Every
// family gets both, in that order — the exposition-lint test enforces it.
func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// WriteText renders the counters in Prometheus text format. Field ordering
// is deterministic: metrics render in a fixed sequence, routes and phases
// sort lexicographically within each metric, and quantiles ascend within
// each route.
func (c *Counters) WriteText(w io.Writer) {
	c.mu.Lock()
	names := make([]string, 0, len(c.routes))
	routes := make(map[string]*routeStats, len(c.routes))
	for name, rs := range c.routes {
		names = append(names, name)
		routes[name] = rs
	}
	phaseNames := make([]string, 0, len(c.phases))
	phases := make(map[string]*routeStats, len(c.phases))
	for name, rs := range c.phases {
		phaseNames = append(phaseNames, name)
		phases[name] = rs
	}
	c.mu.Unlock()
	sort.Strings(names)
	sort.Strings(phaseNames)

	header(w, "ml4all_requests_total", "counter", "Requests served, by route.")
	for _, name := range names {
		fmt.Fprintf(w, "ml4all_requests_total{route=%q} %d\n", name, routes[name].count.Load())
	}
	header(w, "ml4all_request_errors_total", "counter", "Requests answered with status >= 400, by route.")
	for _, name := range names {
		fmt.Fprintf(w, "ml4all_request_errors_total{route=%q} %d\n", name, routes[name].errors.Load())
	}
	header(w, "ml4all_request_seconds_total", "counter", "Total request latency, by route.")
	for _, name := range names {
		fmt.Fprintf(w, "ml4all_request_seconds_total{route=%q} %g\n", name, time.Duration(routes[name].nanos.Load()).Seconds())
	}
	header(w, "ml4all_request_seconds_max", "gauge", "Largest single request latency seen, by route.")
	for _, name := range names {
		fmt.Fprintf(w, "ml4all_request_seconds_max{route=%q} %g\n", name, time.Duration(routes[name].maxNanos.Load()).Seconds())
	}
	header(w, "ml4all_request_seconds", "gauge", "Request latency quantiles (bucket upper bounds, deterministic), by route.")
	for _, name := range names {
		for _, rq := range reportedQuantiles {
			fmt.Fprintf(w, "ml4all_request_seconds{route=%q,quantile=%q} %g\n",
				name, rq.label, routes[name].quantile(rq.q))
		}
	}
	header(w, "ml4all_request_seconds_bucket", "counter", "Cumulative request latency histogram, by route.")
	for _, name := range names {
		writeBuckets(w, "ml4all_request_seconds_bucket", "route", name, routes[name])
	}
	header(w, "ml4all_phase_seconds", "histogram", "Traced phase durations (optimize, speculate, train, checkpoint, recover, predict-batch).")
	for _, name := range phaseNames {
		rs := phases[name]
		writeBuckets(w, "ml4all_phase_seconds_bucket", "phase", name, rs)
		fmt.Fprintf(w, "ml4all_phase_seconds_sum{phase=%q} %g\n", name, time.Duration(rs.nanos.Load()).Seconds())
		fmt.Fprintf(w, "ml4all_phase_seconds_count{phase=%q} %d\n", name, rs.count.Load())
	}
	header(w, "ml4all_predict_rows_total", "counter", "Rows scored across all predict calls.")
	fmt.Fprintf(w, "ml4all_predict_rows_total %d\n", c.predictRows.Load())
	header(w, "ml4all_predict_batches_total", "counter", "Predict calls that reached the kernels.")
	fmt.Fprintf(w, "ml4all_predict_batches_total %d\n", c.predictBatches.Load())
	header(w, "ml4all_predict_rejected_total", "counter", "Requests refused by admission control.")
	fmt.Fprintf(w, "ml4all_predict_rejected_total %d\n", c.rejected.Load())
	header(w, "ml4all_predict_inflight_rows", "gauge", "Rows admitted whose response is not yet built.")
	fmt.Fprintf(w, "ml4all_predict_inflight_rows %d\n", c.inFlightRows.Load())
	header(w, "ml4all_checkpoints_written_total", "counter", "Durable checkpoint frames written.")
	fmt.Fprintf(w, "ml4all_checkpoints_written_total %d\n", c.ckptWritten.Load())
	header(w, "ml4all_checkpoints_verified_total", "counter", "Checkpoint frames that passed their checksum on resume.")
	fmt.Fprintf(w, "ml4all_checkpoints_verified_total %d\n", c.ckptVerified.Load())
	header(w, "ml4all_checkpoints_discarded_corrupt_total", "counter", "Checkpoint frames discarded as corrupt or unreadable.")
	fmt.Fprintf(w, "ml4all_checkpoints_discarded_corrupt_total %d\n", c.ckptCorrupt.Load())
	header(w, "ml4all_registry_fallbacks_total", "counter", "Model versions entombed as corrupt on registry load.")
	fmt.Fprintf(w, "ml4all_registry_fallbacks_total %d\n", c.registryFallbacks.Load())
	header(w, "ml4all_recovered_panics_total", "counter", "Panics converted to job or request errors.")
	fmt.Fprintf(w, "ml4all_recovered_panics_total %d\n", c.recoveredPanics.Load())
	header(w, "ml4all_deadline_expired_total", "counter", "Predict requests abandoned on context expiry.")
	fmt.Fprintf(w, "ml4all_deadline_expired_total %d\n", c.deadlineExpired.Load())
	header(w, "ml4all_ledger_records_total", "counter", "Run-ledger records appended.")
	fmt.Fprintf(w, "ml4all_ledger_records_total %d\n", c.ledgerRecords.Load())
	header(w, "ml4all_ledger_errors_total", "counter", "Run-ledger append failures (job completion is unaffected).")
	fmt.Fprintf(w, "ml4all_ledger_errors_total %d\n", c.ledgerErrors.Load())
}

// writeBuckets renders one series' cumulative histogram buckets with the
// terminal +Inf bucket.
func writeBuckets(w io.Writer, metric, label, series string, rs *routeStats) {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += rs.buckets[i].Load()
		if i == histBuckets-1 {
			fmt.Fprintf(w, "%s{%s=%q,le=\"+Inf\"} %d\n", metric, label, series, cum)
		} else {
			fmt.Fprintf(w, "%s{%s=%q,le=%q} %d\n", metric, label, series, fmt.Sprintf("%g", bucketBound(i)), cum)
		}
	}
}
