package obs

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ml4all/internal/engine"
	"ml4all/internal/estimator"
)

func TestFoldCurveKeepsImprovements(t *testing.T) {
	r := NewRing(0)
	deltas := []float64{0.5, 0.8, 0.25, 0.25, 0.125, 0.0625}
	for i, d := range deltas {
		r.ObserveIter(engine.IterEvent{Iter: i + 1, Delta: d, SimSeconds: float64(i), Units: int64(i * 100)})
	}
	// The curve keeps only strict improvements: 0.8 (regression) and the
	// repeated 0.25 must drop out, what remains must be strictly decreasing.
	curve := FoldCurve(nil, deltas, 0)
	want := []estimator.Point{{Iter: 1, Err: 0.5}, {Iter: 3, Err: 0.25}, {Iter: 5, Err: 0.125}, {Iter: 6, Err: 0.0625}}
	if len(curve) != len(want) {
		t.Fatalf("curve has %d points, want %d: %v", len(curve), len(want), curve)
	}
	for i := range want {
		if curve[i] != want[i] {
			t.Fatalf("curve[%d] = %+v, want %+v", i, curve[i], want[i])
		}
	}
	if r.WallSeconds() < 0 {
		t.Fatalf("negative wall time %g", r.WallSeconds())
	}
}

func TestFoldCurveIgnoresNonPositiveDeltas(t *testing.T) {
	curve := FoldCurve(nil, []float64{math.Inf(1), 0, -1, math.NaN(), 0.5}, 0)
	if len(curve) != 1 || curve[0].Err != 0.5 {
		t.Fatalf("curve = %v, want the single finite positive delta", curve)
	}
}

// TestFoldCurveThinning: a curve that outgrows maxCurvePoints is thinned, not
// truncated — it stays within the bound, strictly monotone, and still spans
// the run from its first point to its latest improvement. Folded in pieces
// of any size, the same deltas give the same curve point for point.
func TestFoldCurveThinning(t *testing.T) {
	const n = 2*maxCurvePoints + 1
	deltas := make([]float64, n)
	for i := range deltas {
		deltas[i] = 1 / float64(i+1)
	}
	curve := FoldCurve(nil, deltas, 0)
	if len(curve) < 2 || len(curve) > maxCurvePoints {
		t.Fatalf("curve has %d points, want 2..%d", len(curve), maxCurvePoints)
	}
	if curve[0].Iter != 1 || curve[len(curve)-1].Iter != n {
		t.Fatalf("thinned curve spans iterations %d..%d, want 1..%d", curve[0].Iter, curve[len(curve)-1].Iter, n)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Iter <= curve[i-1].Iter || curve[i].Err >= curve[i-1].Err {
			t.Fatalf("thinned curve not monotone at %d: %v then %v", i, curve[i-1], curve[i])
		}
	}
	for _, piece := range []int{1, 7, maxCurvePoints} {
		var pieced []estimator.Point
		for done := 0; done < n; done += piece {
			pieced = FoldCurve(pieced, deltas[:min(done+piece, n)], done)
		}
		if !slices.Equal(pieced, curve) {
			t.Fatalf("folded %d deltas at a time: %d points, want the one-pass curve's %d", piece, len(pieced), len(curve))
		}
	}
}

// TestFoldCurveIsMonotoneSequence: below the thinning bound the observed
// curve is the estimator's monotone sequence point for point — one
// improvement rule — over streams with zeros, NaN, ±Inf, negatives and
// repeats.
func TestFoldCurveIsMonotoneSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for trial := 0; trial < 200; trial++ {
		// Fewer deltas than maxCurvePoints, so fewer improvements too.
		d := make([]float64, rng.Intn(maxCurvePoints))
		for i := range d {
			switch r := rng.Intn(10); {
			case r < 3:
				d[i] = specials[rng.Intn(len(specials))]
			case r < 5 && i > 0:
				d[i] = d[i-1]
			default:
				d[i] = rng.Float64() / float64(i+1)
			}
		}
		want := estimator.MonotoneSequence(d)
		if got := FoldCurve(nil, d, 0); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d deltas): FoldCurve has %d points, MonotoneSequence %d", trial, len(d), len(got), len(want))
		}
	}
}

func TestCurveETA(t *testing.T) {
	// Synthesize an exact T(ε) = a/ε run: after iteration i the error is a/i.
	const a = 200.0
	var curve []estimator.Point
	for i := 1; i <= 40; i++ {
		curve = append(curve, estimator.Point{Iter: i, Err: a / float64(i)})
	}
	fitted, rem := CurveETA(curve, 1.0)
	if math.Abs(fitted-a) > 1e-6*a {
		t.Fatalf("fitted a = %g, want %g", fitted, a)
	}
	// At iteration 40 the error is a/40 = 5; reaching ε=1 needs a/1 - a/5
	// more iterations = 160.
	if want := 160.0; math.Abs(rem-want) > 1 {
		t.Fatalf("remaining = %g, want ≈%g", rem, want)
	}

	if _, rem := CurveETA(nil, 1.0); rem != -1 {
		t.Fatalf("empty curve: remaining = %g, want -1", rem)
	}
	if _, rem := CurveETA(curve, 0); rem != -1 {
		t.Fatalf("tol=0 (infinite projection): remaining = %g, want -1", rem)
	}
}

func TestFinite(t *testing.T) {
	for _, v := range []float64{0, 1, -3.5, 1e-300, math.MaxFloat64} {
		if Finite(v) != v {
			t.Fatalf("Finite(%g) = %g, want pass-through", v, Finite(v))
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if Finite(v) != -1 {
			t.Fatalf("Finite(%g) = %g, want -1", v, Finite(v))
		}
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("optimize", -1)
	child := tr.Start("speculate", root)
	if d := tr.End(child); d < 0 {
		t.Fatalf("child duration %v", d)
	}
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "optimize" || spans[0].Parent != -1 {
		t.Fatalf("root span = %+v", spans[0])
	}
	if spans[1].Name != "speculate" || spans[1].Parent != root {
		t.Fatalf("child span = %+v, want parent %d", spans[1], root)
	}
	for _, sp := range spans {
		if sp.EndNanos <= sp.StartNanos {
			t.Fatalf("span %q not closed: start %d end %d", sp.Name, sp.StartNanos, sp.EndNanos)
		}
	}
	// The child must nest inside the parent on the monotonic timeline.
	if spans[1].StartNanos < spans[0].StartNanos || spans[1].EndNanos > spans[0].EndNanos {
		t.Fatalf("child [%d,%d] escapes parent [%d,%d]",
			spans[1].StartNanos, spans[1].EndNanos, spans[0].StartNanos, spans[0].EndNanos)
	}

	if tot := tr.Totals(); tot["optimize"] <= 0 || tot["speculate"] <= 0 {
		t.Fatalf("Totals = %v, want positive per-phase seconds", tot)
	}
	// End is idempotent and tolerant of junk ids.
	if d := tr.End(child); d != 0 {
		t.Fatalf("double End returned %v, want 0", d)
	}
	if tr.End(-1) != 0 || tr.End(99) != 0 {
		t.Fatal("End of invalid ids must be a no-op")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if id := tr.Start("x", -1); id != -1 {
		t.Fatalf("nil trace Start = %d, want -1", id)
	}
	if d := tr.End(0); d != 0 {
		t.Fatalf("nil trace End = %v, want 0", d)
	}
	if spans := tr.Spans(); spans != nil {
		t.Fatalf("nil trace Spans = %v", spans)
	}
}

func TestTraceOnEnd(t *testing.T) {
	tr := NewTrace()
	var gotName string
	var gotDur time.Duration
	tr.OnEnd(func(name string, d time.Duration) { gotName, gotDur = name, d })
	id := tr.Start("train", -1)
	tr.End(id)
	if gotName != "train" || gotDur <= 0 {
		t.Fatalf("OnEnd saw (%q, %v), want (train, >0)", gotName, gotDur)
	}
}

func TestEventLogReplayAndClose(t *testing.T) {
	l := NewEventLog(8)
	l.Append(Event{Type: "state", State: "running"})
	l.Append(Event{Type: "progress", Iter: 1, Delta: 0.5})
	l.Append(Event{Type: "progress", Iter: 2, Delta: 0.25})

	evs, closed, err := l.Wait(context.Background(), -1)
	if err != nil || closed {
		t.Fatalf("Wait: evs=%d closed=%v err=%v", len(evs), closed, err)
	}
	if len(evs) != 3 || evs[0].Seq != 0 || evs[2].Seq != 2 {
		t.Fatalf("replay = %+v", evs)
	}
	// Resume from the middle of the stream.
	evs, _, _ = l.Wait(context.Background(), 1)
	if len(evs) != 1 || evs[0].Iter != 2 {
		t.Fatalf("Wait(after=1) = %+v", evs)
	}

	l.Close("completed")
	if !l.Closed() {
		t.Fatal("log not closed after Close")
	}
	evs, closed, err = l.Wait(context.Background(), 2)
	if err != nil || !closed || len(evs) != 1 || evs[0].State != "completed" {
		t.Fatalf("terminal Wait: evs=%+v closed=%v err=%v", evs, closed, err)
	}
	// Fully drained on a closed stream: empty page, closed=true, immediately.
	evs, closed, err = l.Wait(context.Background(), 3)
	if err != nil || !closed || len(evs) != 0 {
		t.Fatalf("drained Wait: evs=%+v closed=%v err=%v", evs, closed, err)
	}
	// Appends after Close are dropped.
	l.Append(Event{Type: "progress", Iter: 3})
	if evs, _, _ := l.Wait(context.Background(), 3); len(evs) != 0 {
		t.Fatalf("append after Close leaked: %+v", evs)
	}
}

func TestEventLogRetention(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Type: "progress", Iter: i})
	}
	evs, _, _ := l.Wait(context.Background(), -1)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("retained window = Seq %d..%d, want 6..9", evs[0].Seq, evs[3].Seq)
	}
}

// TestEventLogFullAppendAllocatesOnlyTheWake: once a log holds capacity
// events, Append overwrites the oldest in place — the one allocation left is
// the fresh wake channel — and a replay across the ring's seam still comes
// back in Seq order.
func TestEventLogFullAppendAllocatesOnlyTheWake(t *testing.T) {
	l := NewEventLog(0)
	for i := 0; i < 1024; i++ {
		l.Append(Event{Type: "progress", Iter: i})
	}
	if allocs := testing.AllocsPerRun(200, func() { l.Append(Event{Type: "progress", Iter: 1}) }); allocs > 1 {
		t.Fatalf("Append on a full log allocates %v times, want at most 1", allocs)
	}
	seq := 1024 + 201 // AllocsPerRun makes one warm-up call besides its runs
	evs, _, _ := l.Wait(context.Background(), seq-11)
	if len(evs) != 10 || evs[0].Seq != seq-10 || evs[9].Seq != seq-1 {
		t.Fatalf("replay after Seq %d = %d events, Seq %d..%d", seq-11, len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
	if evs, _, _ = l.Wait(context.Background(), -1); len(evs) != 1024 || evs[0].Seq != seq-1024 {
		t.Fatalf("full replay = %d events from Seq %d, want 1024 from %d", len(evs), evs[0].Seq, seq-1024)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("replay out of order at %d: Seq %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventLogWaitWakes(t *testing.T) {
	l := NewEventLog(8)
	got := make(chan []Event, 1)
	go func() {
		evs, _, _ := l.Wait(context.Background(), -1)
		got <- evs
	}()
	time.Sleep(10 * time.Millisecond)
	l.Append(Event{Type: "progress", Iter: 7})
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].Iter != 7 {
			t.Fatalf("woken with %+v", evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never woke on Append")
	}
}

func TestEventLogWaitContext(t *testing.T) {
	l := NewEventLog(8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := l.Wait(ctx, -1); err == nil {
		t.Fatal("Wait on an empty open stream must respect ctx")
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Append(Event{})
	l.Close("x")
	if !l.Closed() {
		t.Fatal("nil log must report closed")
	}
	evs, closed, err := l.Wait(context.Background(), -1)
	if err != nil || !closed || len(evs) != 0 {
		t.Fatalf("nil Wait: evs=%v closed=%v err=%v", evs, closed, err)
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Version == "" {
		t.Fatal("Version must never be empty (falls back to dev)")
	}
	if b.Go == "" {
		t.Fatal("Go version missing")
	}
}
