package serve

// Serving hot-path benchmark — a developer tool, nothing gates on it:
// BenchmarkServePredict times the pooled predict path. The 0-allocations
// rule is the root package's TestPredictAllocatesNothing; bench/ measures
// the path under load (serve.predictor_us.*, serve.predict_allocs_per_op).

import (
	"context"
	"fmt"
	"testing"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// benchModel builds a d-dimensional model with the deterministic weight
// pattern the offline predict benchmarks use.
func benchModel(d int) *ModelVersion {
	w := make(linalg.Vector, d)
	for i := range w {
		w[i] = float64(i%13)/13 - 0.5
	}
	return &ModelVersion{
		Name: "bench", Version: 1,
		Model: &ml4all.Model{Name: "bench", Task: data.TaskSVM, Weights: w},
	}
}

// benchRequest builds a small mixed-sparsity LIBSVM request — the
// parse-heavy shape serving traffic takes.
func benchRequest(rows, d int) *PredictRequest {
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d:%g %d:%g %d:%g",
			i%d+1, 0.25+float64(i), (i+7)%d+1, -1.5, (i+29)%d+1, float64(i%5))
	}
	return &PredictRequest{Rows: lines}
}

// BenchmarkServePredict measures the steady-state predict path:
// pooled parse, admission, one kernel pass, pooled response. Must stay at 0
// allocs/op — every pool has warmed before the timer starts.
func BenchmarkServePredict(b *testing.B) {
	p := NewPredictor(newCounters())
	mv := benchModel(128)
	req := benchRequest(8, 128)
	for i := 0; i < 16; i++ { // warm every pool class the path touches
		resp := AcquirePredictResponse()
		if err := p.Predict(context.Background(), mv, req, resp); err != nil {
			b.Fatal(err)
		}
		resp.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := AcquirePredictResponse()
		if err := p.Predict(context.Background(), mv, req, resp); err != nil {
			b.Fatal(err)
		}
		resp.Release()
	}
}
