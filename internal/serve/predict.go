package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"ml4all/internal/data"
	"ml4all/internal/metrics"
)

// PredictRequest is the body of POST /v1/models/{name}/predict. Exactly one
// of Rows and Instances must be set:
//
//   - Rows are text lines. Lines containing ':' parse as LIBSVM (sparse)
//     rows whose leading label is optional; otherwise they parse as
//     comma-separated dense feature rows (no label column).
//   - Instances are dense feature vectors, at most model-dimension long
//     (shorter vectors are zero-padded, matching how sparse training data
//     treats absent features).
//
// FastMath opts the request into the tolerance-bounded fast kernel tier
// (metrics.ScoresIntoFast).
type PredictRequest struct {
	Rows      []string    `json:"rows,omitempty"`
	Instances [][]float64 `json:"instances,omitempty"`
	FastMath  bool        `json:"fastmath,omitempty"`
}

// reset clears the request for pooled reuse, keeping the Rows/Instances
// backing arrays (json.Decoder appends into them, so steady-state decoding
// reuses their capacity).
func (r *PredictRequest) reset() {
	r.Rows = r.Rows[:0]
	r.Instances = r.Instances[:0]
	r.FastMath = false
}

// PredictResponse reports the scored batch.
type PredictResponse struct {
	Model   string    `json:"model"`
	Version int       `json:"version"`
	Task    string    `json:"task"`
	N       int       `json:"n"`
	Labels  []float64 `json:"labels"` // predicted labels (±1, or raw score for regression)
	Scores  []float64 `json:"scores"` // raw margins <x, w>
}

// Predictor is the serving-side prediction pipeline: pooled request parsing
// and admission control in front of the blocked margin kernels. One
// Predictor serves every model; each call scores its own rows in one kernel
// pass.
type Predictor struct {
	counters *Counters
	phase    *routeStats // "predict-batch" span histogram; nil without counters
	adm      *admitter
}

// NewPredictor builds a pipeline behind admission control (admission.go).
// counters may be nil for standalone use.
func NewPredictor(counters *Counters) *Predictor {
	p := &Predictor{counters: counters}
	if counters != nil {
		// Resolved once so the per-pass observation is lock-free atomics —
		// the timing shares the admission path's clock reads, keeping the
		// scoring hot path at zero allocations (zerotax_test.go pins it).
		p.phase = counters.phase("predict-batch")
	}
	p.adm = newAdmitter(counters)
	return p
}

// Predict scores one request against one registry model, filling resp (use
// AcquirePredictResponse + Release for pooled responses). The scored values
// are bit-identical to offline metrics.Evaluate on the same rows. Requests
// refused by admission control return an *httpError with status 429 and a
// Retry-After.
//
// ctx is read once, at entry: a call whose client has already gone (or
// whose deadline has passed) returns a 503 with Retry-After before any
// parsing or admission. Scoring itself is not interrupted.
func (p *Predictor) Predict(ctx context.Context, mv *ModelVersion, req *PredictRequest, resp *PredictResponse) error {
	if err := ctx.Err(); err != nil {
		p.counters.deadlineExpire()
		return deadlineError(err)
	}
	b := getBuilder()
	defer putBuilder(b)
	mat, err := buildRequestMatrix(b, req, len(mv.Model.Weights))
	if err != nil {
		return err
	}
	n := mat.NumRows()
	if retry, ok := p.adm.admit(n); !ok {
		return retryError(retry, n)
	}
	p.scoreDirect(mv, req.FastMath, mat, resp)
	p.adm.done(n)
	for i, s := range resp.Scores {
		// JSON has no NaN or infinity: such a score would leave a 200 with
		// no body, so the row is refused instead.
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("serve: row %d scores %v, which a JSON answer cannot carry", i+1, s)
		}
	}
	if p.counters != nil {
		p.counters.observePredict(n)
	}
	return nil
}

// scoreDirect runs one kernel pass over this request's rows.
func (p *Predictor) scoreDirect(mv *ModelVersion, fast bool, mat *data.Matrix, resp *PredictResponse) {
	m := mv.Model
	n := mat.NumRows()
	scores := floatPool.get(n)
	start := time.Now()
	if fast {
		metrics.ScoresIntoFast(m.Weights, mat, scores)
	} else {
		metrics.ScoresInto(m.Weights, mat, scores)
	}
	d := time.Since(start)
	p.adm.observeRate(n, d)
	if p.phase != nil {
		p.phase.observe(d, false)
	}
	labels := floatPool.get(n)
	for i, s := range scores {
		labels[i] = metrics.PredictScore(m.Task, s)
	}
	resp.Model = mv.Name
	resp.Version = mv.Version
	resp.Task = m.Task.String()
	resp.N = n
	resp.Labels = labels
	resp.Scores = scores
}

// retryError builds the 429 an admission-refused request returns.
func retryError(retry time.Duration, n int) error {
	err := errStatus(http.StatusTooManyRequests, "serve: over capacity: %d rows refused, retry after %s", n, retry)
	err.retryAfter = retry
	return err
}

// deadlineError builds the 503 a deadline-expired request returns. 503 (not
// 504): the service is shedding the call, and a retry after the hinted pause
// is expected to succeed.
func deadlineError(cause error) error {
	err := errStatus(http.StatusServiceUnavailable, "serve: request deadline expired: %v", cause)
	err.retryAfter = time.Second
	return err
}

// buildRequestMatrix parses a prediction request into b, a pooled builder
// whose arena is recycled across requests, and returns the BuildView arena —
// the same zero-copy form the training stack reads, valid until the builder
// is next Reset. d is the model dimension; every row is validated against it
// up front, so scoring needs no second dimension check.
func buildRequestMatrix(b *data.MatrixBuilder, req *PredictRequest, d int) (*data.Matrix, error) {
	switch {
	case len(req.Rows) > 0 && len(req.Instances) > 0:
		return nil, fmt.Errorf("serve: request sets both rows and instances; pick one")
	case len(req.Rows) > 0:
		return parseRequestRows(b, req.Rows, d)
	case len(req.Instances) > 0:
		return buildInstances(b, req.Instances, d)
	default:
		return nil, fmt.Errorf("serve: empty prediction request: set rows or instances")
	}
}

// parseRequestRows parses text rows. The batch is sparse when any row carries
// a ':' (LIBSVM), dense comma-separated otherwise — one format per request,
// because one matrix holds the batch.
func parseRequestRows(b *data.MatrixBuilder, rows []string, d int) (*data.Matrix, error) {
	libsvm := false
	for _, line := range rows {
		if strings.ContainsRune(line, ':') {
			libsvm = true
			break
		}
	}
	sc := scratchPool.Get().(*parseScratch)
	defer scratchPool.Put(sc)
	if libsvm {
		idx, vals := sc.idx, sc.vals
		for i, line := range rows {
			label, _, oidx, ovals, ok, err := data.ParsePredictLIBSVM(line, idx[:0], vals[:0])
			if err != nil {
				sc.idx, sc.vals = oidx, ovals
				return nil, fmt.Errorf("serve: row %d: %w", i+1, err)
			}
			if !ok {
				return nil, fmt.Errorf("serve: row %d is blank", i+1)
			}
			idx, vals = oidx, ovals
			for _, ix := range idx {
				if int(ix) >= d {
					// Report the 1-based index the caller wrote.
					sc.idx, sc.vals = idx, vals
					return nil, fmt.Errorf("serve: row %d references feature %d, model has %d (LIBSVM indices 1..%d)", i+1, ix+1, d, d)
				}
			}
			if err := b.AppendSparse(label, idx, vals); err != nil {
				sc.idx, sc.vals = idx, vals
				return nil, fmt.Errorf("serve: row %d: %w", i+1, err)
			}
		}
		sc.idx, sc.vals = idx, vals
		return b.BuildView(), nil
	}
	if err := b.SetDense(d); err != nil {
		return nil, err
	}
	vals := sc.vals
	for i, line := range rows {
		ovals, ok, err := data.ParsePredictCSV(line, vals[:0])
		if err != nil {
			sc.vals = ovals
			return nil, fmt.Errorf("serve: row %d: %w", i+1, err)
		}
		if !ok {
			return nil, fmt.Errorf("serve: row %d is blank", i+1)
		}
		vals = ovals
		if err := appendPadded(b, vals, d, i); err != nil {
			sc.vals = vals
			return nil, err
		}
	}
	sc.vals = vals
	return b.BuildView(), nil
}

// buildInstances packs dense JSON feature vectors into a strided arena.
func buildInstances(b *data.MatrixBuilder, instances [][]float64, d int) (*data.Matrix, error) {
	if err := b.SetDense(d); err != nil {
		return nil, err
	}
	for i, inst := range instances {
		if err := appendPadded(b, inst, d, i); err != nil {
			return nil, err
		}
	}
	return b.BuildView(), nil
}

// appendPadded appends one dense row zero-padded to the model dimension.
// Padding with zeros leaves every margin bit-identical — a zero feature
// contributes exactly nothing to the dot product. The fused append writes
// each arena element once instead of pre-zeroing the full row.
func appendPadded(b *data.MatrixBuilder, vals []float64, d, i int) error {
	if len(vals) > d {
		return fmt.Errorf("serve: row %d has %d features, model has %d", i+1, len(vals), d)
	}
	return b.AppendDensePadded(0, vals)
}
