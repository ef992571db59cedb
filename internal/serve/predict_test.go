package serve

// Prediction-service request parsing and scoring: every accepted form
// (label-optional LIBSVM rows, bare-feature CSV rows, dense JSON instances)
// lands in a columnar arena and scores through the blocked margin kernels,
// bit-identically to the per-row Dot path; malformed and mis-dimensioned
// requests are rejected with actionable errors; concurrent callers get
// bitwise a single caller's scores; and Server shutdown drains in-flight
// predict traffic.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

func predictModel() *ModelVersion {
	return &ModelVersion{
		Name: "m", Version: 3,
		Model: &ml4all.Model{
			Name: "m", Task: data.TaskSVM,
			Weights: linalg.Vector{0.5, -1.25, 2, 0.125},
		},
	}
}

func TestPredictFormsAgree(t *testing.T) {
	mv := predictModel()
	w := mv.Model.Weights
	// The same three rows in all three request forms (LIBSVM feature
	// indices are 1-based on the wire, like the dataset files).
	sparse := []string{
		"1:1 3:2",   // label-less LIBSVM
		"1 2:4 4:8", // labeled LIBSVM (label ignored)
		"4:1",
	}
	dense := []string{"1,0,2,0", "0,4,0,8", "0,0,0,1"}
	instances := [][]float64{{1, 0, 2}, {0, 4, 0, 8}, {0, 0, 0, 1}} // first is short: zero-padded

	want := []float64{
		1*w[0] + 2*w[2],
		4*w[1] + 8*w[3],
		1 * w[3],
	}
	for name, req := range map[string]*PredictRequest{
		"libsvm":    {Rows: sparse},
		"csv":       {Rows: dense},
		"instances": {Instances: instances},
	} {
		resp, err := predict(mv, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Model != "m" || resp.Version != 3 || resp.Task != "SVM" || resp.N != 3 {
			t.Fatalf("%s: header %+v", name, resp)
		}
		for i := range want {
			if resp.Scores[i] != want[i] {
				t.Fatalf("%s row %d: score %g != %g", name, i, resp.Scores[i], want[i])
			}
			wantLabel := 1.0
			if want[i] < 0 {
				wantLabel = -1
			}
			if resp.Labels[i] != wantLabel {
				t.Fatalf("%s row %d: label %g != %g", name, i, resp.Labels[i], wantLabel)
			}
		}
	}
}

func TestPredictRegressionReturnsRawScores(t *testing.T) {
	mv := predictModel()
	mv.Model.Task = data.TaskLinearRegression
	resp, err := predict(mv, &PredictRequest{Instances: [][]float64{{1, 1, 1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 - 1.25 + 2 + 0.125
	if resp.Labels[0] != want || resp.Scores[0] != want {
		t.Fatalf("regression label/score = %g/%g, want %g", resp.Labels[0], resp.Scores[0], want)
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	mv := predictModel()
	cases := []struct {
		name    string
		req     *PredictRequest
		wantErr string
	}{
		{"empty", &PredictRequest{}, "empty prediction request"},
		{"both", &PredictRequest{Rows: []string{"1:1"}, Instances: [][]float64{{1}}}, "both rows and instances"},
		{"oob-feature", &PredictRequest{Rows: []string{"9:1"}}, "references feature 9, model has 4"},
		{"long-instance", &PredictRequest{Instances: [][]float64{{1, 2, 3, 4, 5}}}, "has 5 features"},
		{"long-csv", &PredictRequest{Rows: []string{"1,2,3,4,5"}}, "has 5 features"},
		{"blank-row", &PredictRequest{Rows: []string{"1:1", "   "}}, "row 2 is blank"},
		{"garbage-libsvm", &PredictRequest{Rows: []string{"1:one"}}, "row 1"},
		{"garbage-csv", &PredictRequest{Rows: []string{"1,two"}}, "row 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := predict(mv, tc.req)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestPredictMatchesPerRowDot pins the batched path against the per-row
// reference over a sparse arena wide enough to cross block boundaries.
func TestPredictMatchesPerRowDot(t *testing.T) {
	d := 40
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = float64(i%7) - 2.5
	}
	mv := &ModelVersion{Name: "wide", Version: 1, Model: &ml4all.Model{
		Name: "wide", Task: data.TaskLogisticRegression, Weights: w,
	}}
	rows := make([]string, 700) // > data.DefaultBlockSize, so ≥ 2 blocks
	for i := range rows {
		var fields []string
		for k := 0; k < 5; k++ {
			fields = append(fields, fmt.Sprintf("%d:0.%03d", (i*3+k*11)%d+1, 100+(i+k)%900))
		}
		rows[i] = strings.Join(fields, " ")
	}
	resp, err := predict(mv, &PredictRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: parse each row independently, normalize it the way the
	// arena builder does, and Dot it.
	for i, line := range rows {
		_, _, idx, vals, ok, err := data.ParsePredictLIBSVM(line, nil, nil)
		if err != nil || !ok {
			t.Fatalf("row %d: %v %v", i, ok, err)
		}
		n, err := linalg.SortDedup(idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		want := data.NewSparseRow(0, idx[:n], vals[:n]).Dot(w)
		if resp.Scores[i] != want {
			t.Fatalf("row %d: blocked score %g != per-row %g", i, resp.Scores[i], want)
		}
	}
}

func regressionModel() *ModelVersion {
	return &ModelVersion{
		Name: "r", Version: 1,
		Model: &ml4all.Model{
			Name: "r", Task: data.TaskLinearRegression,
			Weights: linalg.Vector{1, -2, 0.75, 0.3},
		},
	}
}

// mixedReq builds a deterministic request varying by (g, i): the three
// accepted forms, sparse and dense, exact and fast tiers.
func mixedReq(g, i int) *PredictRequest {
	v := func(k int) float64 { return float64((g*31+i*7+k)%19)/19 - 0.5 }
	fast := g%2 == 1
	switch (g + i) % 3 {
	case 0: // LIBSVM sparse rows
		return &PredictRequest{Rows: []string{
			fmt.Sprintf("1:%g 3:%g", v(0), v(1)),
			fmt.Sprintf("2:%g 4:%g", v(2), v(3)),
		}, FastMath: fast}
	case 1: // dense CSV rows
		return &PredictRequest{Rows: []string{
			fmt.Sprintf("%g,%g,%g,%g", v(0), v(1), v(2), v(3)),
		}, FastMath: fast}
	default: // dense JSON instances, one short row zero-padded
		return &PredictRequest{Instances: [][]float64{
			{v(0), v(1)},
			{v(1), v(2), v(3), v(0)},
		}, FastMath: fast}
	}
}

// sameBits fails the test unless got and want are bitwise-identical float
// slices.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConcurrentPredictMatchesDirectBitwise hammers one predictor from
// concurrent goroutines across mixed models, request forms and kernel tiers,
// comparing every response bitwise against the same request scored by a
// single caller. Concurrent callers share the pooled arenas, parse scratch
// and score buffers; run under -race this checks none leaks between calls.
// Responses are held until the end, so a buffer handed to two callers at
// once shows as a wrong score.
func TestConcurrentPredictMatchesDirectBitwise(t *testing.T) {
	models := []*ModelVersion{predictModel(), regressionModel()}
	const goroutines, iters = 8, 25
	p := NewPredictor(AdmissionConfig{Disabled: true}, newCounters())
	got := make([][]*PredictResponse, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*PredictResponse, iters)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range got[g] {
				resp := AcquirePredictResponse()
				if errs[g] = p.Predict(context.Background(), models[(g+i)%len(models)], mixedReq(g, i), resp); errs[g] != nil {
					return
				}
				got[g][i] = resp
			}
		}(g)
	}
	wg.Wait()

	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, resp := range got[g] {
			want, err := predict(models[(g+i)%len(models)], mixedReq(g, i))
			if err != nil {
				t.Fatalf("single caller g%d i%d: %v", g, i, err)
			}
			what := fmt.Sprintf("g%d i%d", g, i)
			sameBits(t, what+" scores", resp.Scores, want.Scores)
			sameBits(t, what+" labels", resp.Labels, want.Labels)
			if resp.Model != want.Model || resp.Version != want.Version || resp.Task != want.Task {
				t.Fatalf("%s: metadata %+v, want %+v", what, resp, want)
			}
		}
	}
}

// TestServerShutdownDrainsPredictTraffic exercises the full Server shutdown
// path with predict calls in flight: Shutdown must drain the manager
// without failing a single call.
func TestServerShutdownDrainsPredictTraffic(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mv, err := srv.Registry().Publish("m", predictModel().Model)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp := AcquirePredictResponse()
				if err := srv.predictor.Predict(context.Background(), mv, mixedReq(g, i), resp); err != nil {
					errc <- err
					return
				}
				resp.Release()
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with traffic in flight: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
