package main

import (
	"math"
	"testing"
	"time"

	"ml4all"
	"ml4all/internal/data"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that could pass for a measurement")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// A sample may quote a percentile only with at least ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{19, 0.50, 9}, {20, 0.50, 10}, {99, 0.90, 9}, {100, 0.90, 10}, {199, 0.95, 9}, {200, 0.95, 10},
		{999, 0.99, 9}, {1000, 0.99, 10}, {1500, 0.99, 15}, {10000, 0.999, 10},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worsened %v, want 0.10", got)
	}
	if got := worsening(100, 90, true); got >= 0 {
		t.Errorf("lower-is-better 100→90 is an improvement, got %v", got)
	}
	if got := worsening(100, 90, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 worsened %v, want 0.10", got)
	}
}

// Two passes of the same code disagree by the same amount whichever ran
// first: a disturbed first pass must fail the repeat check like a disturbed
// second one.
func TestDisagreementIsSymmetric(t *testing.T) {
	for _, lower := range []bool{true, false} {
		firstOff, secondOff := disagreement(140, 100, lower), disagreement(100, 140, lower)
		if firstOff != secondOff {
			t.Errorf("lower=%v: outlier first %v, outlier second %v", lower, firstOff, secondOff)
		}
		// The base is the better reading: 100 when lower is better, 140 when higher is.
		want := 0.40
		if !lower {
			want = 40.0 / 140
		}
		if math.Abs(firstOff-want) > 1e-12 {
			t.Errorf("lower=%v: 100 against 140 disagree by %v, want %v of the better reading", lower, firstOff, want)
		}
	}
	if got := disagreement(7, 7, true); got != 0 {
		t.Errorf("equal readings disagree by %v", got)
	}
}

// An open loop charges a stall to every request it delayed: latency runs from
// the due time, not from when the generator got round to sending.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const rate = 1000.0 // one request per millisecond
	if got := dueAt(0, rate); got != 0 {
		t.Errorf("request 0 due at %v", got)
	}
	if got := dueAt(1500, rate); got != 1500*time.Millisecond {
		t.Errorf("request 1500 due at %v, want 1.5s", got)
	}
	// The server stalls 5 ms while request 10 is in flight; one client, so
	// requests 11-14 are sent late and answered in 100 µs each.
	stallEnd := dueAt(10, rate) + 5*time.Millisecond
	s := openLoopSample{Due: dueAt(12, rate), Sent: stallEnd + 200*time.Microsecond, Done: stallEnd + 300*time.Microsecond}
	if got, want := s.lateness(), 3200*time.Microsecond; got != want {
		t.Errorf("lateness %v, want %v", got, want)
	}
	if got, want := s.latency(), 3300*time.Microsecond; got != want {
		t.Errorf("latency %v, want %v (from due time, stall included)", got, want)
	}
	onTime := openLoopSample{Due: dueAt(20, rate), Sent: dueAt(20, rate), Done: dueAt(20, rate) + 150*time.Microsecond}
	if onTime.lateness() != 0 || onTime.latency() != 150*time.Microsecond {
		t.Errorf("on-time request: late %v, latency %v", onTime.lateness(), onTime.latency())
	}
	early := openLoopSample{Due: time.Millisecond, Sent: 900 * time.Microsecond, Done: 2 * time.Millisecond}
	if early.lateness() != 0 {
		t.Errorf("a request sent early is not late, got %v", early.lateness())
	}
}

func TestIntervalQuantileIgnoresThinSeconds(t *testing.T) {
	var answers []answer
	// Two full seconds of 1 500 requests at 100 µs, the second with a stalled
	// 2 % at 9 ms; a third second with only 50 requests cannot support a p99.
	for i := 0; i < 3050; i++ {
		a := answer{}
		a.Due = dueAt(i, 1500)
		lat := 100 * time.Microsecond
		if i >= 1500 && i < 3000 && i%50 == 0 {
			lat = 9 * time.Millisecond
		}
		a.Sent, a.Done = a.Due, a.Due+lat
		answers = append(answers, a)
	}
	got, n := intervalQuantile(answers, 0.99, answer.latencyMicros)
	if n != 2 {
		t.Fatalf("%d seconds contributed, want 2", n)
	}
	if want := (100.0 + 9000.0) / 2; got != want {
		t.Errorf("median of per-second p99s = %v, want %v", got, want)
	}
}

// Self time is a span's duration minus what its children cover — counted
// once where children overlap, and only inside the parent.
func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Layer: "data", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Layer: "engine", Start: 30 * ms, End: 60 * ms},  // overlaps span 1 by 10 ms
		{ID: 3, Parent: 0, Layer: "engine", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 4, Parent: 2, Layer: "linalg", Start: 35 * ms, End: 45 * ms},
		{ID: 5, Parent: 0, Layer: "serve", Start: 70 * ms, End: -1}, // never closed
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 30 * ms, 20 * ms, 30 * ms, 10 * ms, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i, self[i], want[i])
		}
	}
	shares, rootLayer, total := layerShares(spans)
	if rootLayer != "bench" || total != 100*ms {
		t.Fatalf("root %q total %v", rootLayer, total)
	}
	if got := shares["bench"]; math.Abs(got-0.40) > 1e-12 {
		t.Errorf("root self share %v, want 0.40 (so coverage 0.60)", got)
	}
	if got := shares["engine"]; math.Abs(got-0.50) > 1e-12 {
		t.Errorf("engine share %v, want 0.50", got)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "y", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil || tr.now() != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

// The score check must notice one wrong score: the self-test -break-check
// relies on it.
func TestScoreCheckerCatchesOneWrongScore(t *testing.T) {
	b := data.NewDenseMatrixBuilder(rowsPerRequest, 2)
	for i := 0; i < rowsPerRequest; i++ {
		if err := b.AppendDense(0, []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	model := &ml4all.Model{Name: "m", Task: data.TaskLogisticRegression, Weights: []float64{0.5, -0.25}}
	sc := &scoreChecker{
		reqs:  []predictReq{{mat: b.Build()}},
		model: func(int) (*ml4all.Model, error) { return model, nil },
	}
	good := answer{Req: 0, Status: 200, Version: 1, NScores: rowsPerRequest}
	for i := range good.Scores {
		good.Scores[i] = 0.5*float64(i) - 0.25
	}
	refused := good
	refused.Status = 429
	if failed, err := sc.check([]answer{good, refused}); err != nil || failed != 1 {
		t.Fatalf("correct answer + refused answer: %d failed (err %v), want 1", failed, err)
	}
	if err := sc.breakOne(1); err != nil {
		t.Fatal(err)
	}
	if failed, _ := sc.check([]answer{good}); failed != 1 {
		t.Errorf("after corrupting one expected score, %d answers failed, want 1", failed)
	}
}
