package estimator

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ml4all/internal/gd"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

func TestFitInverseRecoversExactCurve(t *testing.T) {
	// Error sequence exactly on T(eps) = a/eps must recover a.
	const a = 250.0
	var seq []Point
	for i := 1; i <= 40; i++ {
		seq = append(seq, Point{Iter: i, Err: a / float64(i)})
	}
	got, err := FitInverse(seq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-a)/a > 1e-9 {
		t.Fatalf("fitted a = %g, want %g", got, a)
	}
}

func TestFitInverseRecoveryProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(17)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(1 + 1000*r.Float64())
		},
	}
	f := func(a float64) bool {
		var seq []Point
		for i := 2; i <= 30; i++ {
			seq = append(seq, Point{Iter: i, Err: a / float64(i)})
		}
		got, err := FitInverse(seq)
		return err == nil && math.Abs(got-a)/a < 1e-6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFitInverseToleratesNoise(t *testing.T) {
	const a = 100.0
	r := rand.New(rand.NewSource(4))
	var seq []Point
	for i := 1; i <= 60; i++ {
		noisy := a / float64(i) * (1 + 0.1*r.NormFloat64())
		if noisy <= 0 {
			continue
		}
		seq = append(seq, Point{Iter: i, Err: noisy})
	}
	got, err := FitInverse(seq)
	if err != nil {
		t.Fatal(err)
	}
	if got < a/2 || got > a*2 {
		t.Fatalf("noisy fit a = %g, want within 2x of %g", got, a)
	}
}

func TestFitInverseRejectsEmptyAndNonPositive(t *testing.T) {
	if _, err := FitInverse(nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := FitInverse([]Point{{Iter: 1, Err: 0}, {Iter: 2, Err: -3}}); err == nil {
		t.Error("non-positive errors accepted")
	}
}

func TestMonotoneSequence(t *testing.T) {
	deltas := []float64{5, 3, 4, 2, 2, 1, math.Inf(1), 0.5}
	seq := MonotoneSequence(deltas)
	want := []Point{{1, 5}, {2, 3}, {4, 2}, {6, 1}, {8, 0.5}}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("MonotoneSequence = %v, want %v", seq, want)
	}
	// Strictly decreasing invariant.
	for i := 1; i < len(seq); i++ {
		if seq[i].Err >= seq[i-1].Err || seq[i].Iter <= seq[i-1].Iter {
			t.Fatalf("sequence not strictly monotone at %d: %v", i, seq)
		}
	}
}

func TestEstimateIterations(t *testing.T) {
	e := Estimate{A: 10, Exact: -1}
	if got := e.Iterations(0.1); got != 100 {
		t.Fatalf("Iterations(0.1) = %d, want 100", got)
	}
	if got := e.Iterations(100); got != 1 {
		t.Fatalf("tiny estimates must floor at 1, got %d", got)
	}
	if got := e.Iterations(0); got != math.MaxInt32 {
		t.Fatalf("Iterations(0) = %d, want MaxInt32", got)
	}
	// Exact observation short-circuits extrapolation when the sample run
	// already reached the requested tolerance.
	e = Estimate{A: 1e9, Exact: 42, FinalDelta: 0.005, Sequence: []Point{{42, 0.005}}}
	if got := e.Iterations(0.01); got != 42 {
		t.Fatalf("exact short-circuit = %d, want 42", got)
	}
	// ... but not for tighter tolerances than observed.
	if got := e.Iterations(0.001); got == 42 {
		t.Fatal("exact short-circuit applied beyond observed tolerance")
	}
}

func TestSpeculateOnRealPlan(t *testing.T) {
	spec, err := synth.ByName("covtype", 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.N = 4000 // keep the test fast
	ds := synth.MustGenerate(spec)
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.01, MaxIter: 1000, Lambda: 0.05}
	plan := gd.NewBGD(p)
	est, err := Speculate(plan, st, Config{SampleSize: 500, SpecTolerance: 0.05, TimeBudget: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est.Algo != gd.BGD {
		t.Fatalf("algo = %v", est.Algo)
	}
	if len(est.Sequence) < 3 {
		t.Fatalf("speculation observed only %d points", len(est.Sequence))
	}
	if est.SpecTime <= 0 || est.SpecTime > 11 {
		t.Fatalf("SpecTime = %g, want (0, budget+1]", est.SpecTime)
	}
	it := est.Iterations(0.01)
	if it < 1 || it > 100000 {
		t.Fatalf("estimated iterations = %d, absurd", it)
	}
}

func TestClassifyRate(t *testing.T) {
	mk := func(f func(i int) float64, n int) []Point {
		var seq []Point
		for i := 1; i <= n; i++ {
			seq = append(seq, Point{Iter: i, Err: f(i)})
		}
		return seq
	}
	if got := ClassifyRate(mk(func(i int) float64 { return 1 / float64(i) }, 30)); got != RateSublinear {
		t.Errorf("1/i sequence = %v, want sublinear", got)
	}
	if got := ClassifyRate(mk(func(i int) float64 { return math.Pow(0.7, float64(i)) }, 30)); got != RateLinear {
		t.Errorf("0.7^i sequence = %v, want linear", got)
	}
	quad := []Point{}
	e := 0.4
	for i := 1; i <= 8; i++ {
		quad = append(quad, Point{Iter: i, Err: e})
		e = e * e
	}
	if got := ClassifyRate(quad); got != RateQuadratic {
		t.Errorf("squared sequence = %v, want quadratic", got)
	}
	if got := ClassifyRate(nil); got != RateUnknown {
		t.Errorf("empty sequence = %v, want unknown", got)
	}
}

// TestExactOnZeroFinalDelta: a separable hinge SGD speculation converges on a
// step that moves nothing, a delta of exactly 0, which MonotoneSequence does
// not record. The run reached every tolerance > 0, so every ε > 0 must
// report the observed iteration count rather than extrapolate from the
// stale last Sequence point.
func TestExactOnZeroFinalDelta(t *testing.T) {
	spec, err := synth.ByName("svm1", 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.N = 3000 // keep the test fast; the sample is 1000 rows either way
	ds := synth.MustGenerate(spec)
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.001, MaxIter: 1000}
	est, err := Speculate(gd.NewSGD(p, gd.Lazy, gd.ShuffledPartition), st,
		Config{SampleSize: 1000, SpecTolerance: 0.1, TimeBudget: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Exact < 0 || len(est.Sequence) == 0 {
		t.Fatalf("speculation did not converge: exact %d, %d points", est.Exact, len(est.Sequence))
	}
	last := est.Sequence[len(est.Sequence)-1]
	if last.Err <= 0.1 {
		t.Fatalf("last recorded error %g reached εs; the run did not end on an unrecorded zero delta", last.Err)
	}
	for _, eps := range []float64{last.Err, 0.1, 1e-3, 1e-9, math.SmallestNonzeroFloat64} {
		if got := est.Iterations(eps); got != est.Exact {
			t.Errorf("Iterations(%g) = %d, want the observed %d", eps, got, est.Exact)
		}
	}
}
