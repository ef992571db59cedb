package serve

// Serving hot-path benchmarks — developer tools, nothing gates on them:
// BenchmarkServePredict times the pooled direct path,
// BenchmarkServePredictCoalesced the coalesced pipeline under closed-loop
// parallel callers. The 0-allocations rule is the root package's
// TestPredictAllocatesNothing; bench/ measures the path under load
// (serve.predictor_us.*, serve.predict_allocs_per_op).

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

// BenchmarkServePredict measures the steady-state direct predict path:
// pooled parse, admission, one kernel pass, pooled response. Must stay at 0
// allocs/op — every pool has warmed before the timer starts.
func BenchmarkServePredict(b *testing.B) {
	p := NewPredictor(CoalesceConfig{Disabled: true}, AdmissionConfig{}, newCounters())
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

// BenchmarkServePredictCoalesced measures the coalesced pipeline: parallel
// closed-loop callers against one model, merged into shared kernel passes.
func BenchmarkServePredictCoalesced(b *testing.B) {
	c := newCounters()
	p := NewPredictor(CoalesceConfig{Force: true}, AdmissionConfig{}, c)
	defer p.Close()
	mv := benchModel(128)
	req := benchRequest(8, 128)
	b.SetParallelism(8) // 8×GOMAXPROCS closed-loop callers
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp := AcquirePredictResponse()
			if err := p.Predict(context.Background(), mv, req, resp); err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
	})
}
