package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/serve"
)

// rowsPerRequest is BENCH_7's request size: small calls are what coalescing
// and pooled ingest exist for, and what a per-request overhead shows up in.
const rowsPerRequest = 4

// serveRig is a real serve.Server behind a loopback listener, plus the HTTP
// client the load generator drives it with.
type serveRig struct {
	*httpClient
	srv    *serve.Server
	http   *http.Server
	served chan error
}

// bootServer opens the state directory (default fsync, 100 ms checkpoints —
// short enough that a 0.4 s job writes several) and starts serving on a
// loopback port the kernel picks.
func bootServer(dir string, sys *ml4all.System) (*serveRig, error) {
	srv, err := serve.New(serve.Config{Dir: dir, System: sys, CheckpointEvery: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRig{
		httpClient: newHTTPClient("http://"+ln.Addr().String(), 2), // the submitter's connection and its event stream
		srv:        srv,
		http:       srv.HTTPServer(ln.Addr().String()),
		served:     make(chan error, 1),
	}
	go func() { r.served <- r.http.Serve(ln) }()
	return r, nil
}

// close stops the listener, then drains the service, and waits for the serve
// goroutine to end.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.http.Shutdown(ctx)
	if serr := <-r.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if serr := r.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// predictReq is one pre-encoded predict request and the same rows parsed the
// way the server's ingest parses them, for the offline score check.
type predictReq struct {
	body []byte
	mat  *data.Matrix
}

// buildRequests makes n requests of rowsPerRequest rows each, rotating over
// the three request shapes of BENCH_7: dense JSON instances, CSV text rows and
// LIBSVM text rows (8 stored values each). Feature values are sixteenths:
// exact in binary and short in text, the shape quantized telemetry takes, so
// the text shapes measure the pipeline and not strconv's long-decimal path.
func buildRequests(rng *rand.Rand, d, n int) ([]predictReq, error) {
	val := func() float64 { return float64(rng.Intn(19)-9) / 16 }
	reqs := make([]predictReq, n)
	for i := range reqs {
		var pr serve.PredictRequest
		var b *data.MatrixBuilder
		switch [...]string{"instances", "csv", "libsvm"}[i%3] {
		case "instances":
			b = data.NewDenseMatrixBuilder(rowsPerRequest, d)
			for r := 0; r < rowsPerRequest; r++ {
				row := make([]float64, d)
				for k := range row {
					row[k] = val()
				}
				pr.Instances = append(pr.Instances, row)
				if err := b.AppendDense(0, row); err != nil {
					return nil, err
				}
			}
		case "csv":
			b = data.NewDenseMatrixBuilder(rowsPerRequest, d)
			var sb strings.Builder
			for r := 0; r < rowsPerRequest; r++ {
				sb.Reset()
				for k := 0; k < d; k++ {
					if k > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "%g", val())
				}
				line := sb.String()
				pr.Rows = append(pr.Rows, line)
				vals, ok, err := data.ParsePredictCSV(line, nil)
				if err != nil || !ok {
					return nil, fmt.Errorf("bench: generated CSV row does not parse: %v", err)
				}
				if err := b.AppendDense(0, vals); err != nil {
					return nil, err
				}
			}
		case "libsvm":
			b = data.NewMatrixBuilder(rowsPerRequest, rowsPerRequest*8)
			var sb strings.Builder
			for r := 0; r < rowsPerRequest; r++ {
				sb.Reset()
				for k, col := range rng.Perm(d)[:8] {
					if k > 0 {
						sb.WriteByte(' ')
					}
					fmt.Fprintf(&sb, "%d:%g", col+1, val())
				}
				line := sb.String()
				pr.Rows = append(pr.Rows, line)
				label, _, idx, vals, ok, err := data.ParsePredictLIBSVM(line, nil, nil)
				if err != nil || !ok {
					return nil, fmt.Errorf("bench: generated LIBSVM row does not parse: %v", err)
				}
				if err := b.AppendSparse(label, idx, vals); err != nil {
					return nil, err
				}
			}
		}
		body, err := json.Marshal(&pr)
		if err != nil {
			return nil, err
		}
		reqs[i] = predictReq{body: body, mat: b.Build()}
	}
	return reqs, nil
}

// scoreChecker holds, per model version, the scores the offline path
// (Model.ScoreMatrix, the kernels training uses) gives every request.
type scoreChecker struct {
	reqs     []predictReq
	model    func(version int) (*ml4all.Model, error)
	expected map[int32][][]float64
}

// breakOne flips the sign of one expected score of version v: the
// self-test that shows a wrong answer fails the run.
func (sc *scoreChecker) breakOne(v int32) error {
	exp, err := sc.forVersion(v)
	if err != nil {
		return err
	}
	exp[0][0] = -exp[0][0] - 1
	return nil
}

func (sc *scoreChecker) forVersion(v int32) ([][]float64, error) {
	if exp, ok := sc.expected[v]; ok {
		return exp, nil
	}
	m, err := sc.model(int(v))
	if err != nil {
		return nil, err
	}
	exp := make([][]float64, len(sc.reqs))
	for i, rq := range sc.reqs {
		if exp[i], err = m.ScoreMatrix(rq.mat); err != nil {
			return nil, err
		}
	}
	if sc.expected == nil {
		sc.expected = map[int32][][]float64{}
	}
	sc.expected[v] = exp
	return exp, nil
}

// check counts the answers that were not a 200 carrying, bit for bit, the
// offline scores of the version that answered.
func (sc *scoreChecker) check(answers []answer) (failed int, err error) {
	for i := range answers {
		a := &answers[i]
		if a.Status != http.StatusOK || a.NScores != rowsPerRequest {
			failed++
			continue
		}
		exp, err := sc.forVersion(a.Version)
		if err != nil {
			return failed, err
		}
		for k, s := range a.Scores {
			if math.Float64bits(s) != math.Float64bits(exp[a.Req][k]) {
				failed++
				break
			}
		}
	}
	return failed, nil
}

func (a answer) latencyMicros() float64 { return micros(a.latency()) }
func (a answer) lateMicros() float64    { return micros(a.lateness()) }

// bySecond groups f of a phase's answers by the second they were due in.
func bySecond(answers []answer, f func(answer) float64) map[int][]float64 {
	buckets := map[int][]float64{}
	for _, a := range answers {
		s := int(a.Due / time.Second)
		buckets[s] = append(buckets[s], f(a))
	}
	return buckets
}

// secondQuantiles splits a phase's answers into whole seconds by due time and
// returns each second's q-quantile of f, for the seconds that hold the ten
// samples beyond q that make it meaningful.
func secondQuantiles(answers []answer, q float64, f func(answer) float64) []float64 {
	var out []float64
	for _, xs := range bySecond(answers, f) {
		if beyond(len(xs), q) >= 10 {
			out = append(out, quantile(xs, q))
		}
	}
	return out
}

// intervalQuantile is the median across a phase's seconds of each second's
// q-quantile of f, and how many seconds that is. One stall then spoils one
// interval, not the phase.
func intervalQuantile(answers []answer, q float64, f func(answer) float64) (float64, int) {
	per := secondQuantiles(answers, q, f)
	return median(per), len(per)
}

// secondStats is one whole second of a phase as the report file shows it.
type secondStats struct {
	Second int     `json:"second"`
	N      int     `json:"n"`
	P50    float64 `json:"p50_us"`
	P90    float64 `json:"p90_us"`
	P99    float64 `json:"p99_us"`
	Late99 float64 `json:"late_p99_us"`
}

// perSecond is the phase second by second (by due time), for the report file.
func perSecond(answers []answer) []secondStats {
	lat, late := bySecond(answers, answer.latencyMicros), bySecond(answers, answer.lateMicros)
	out := make([]secondStats, 0, len(lat))
	for s, xs := range lat {
		out = append(out, secondStats{s, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(late[s], 0.99)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Second < out[j].Second })
	return out
}

// spinCoreShare is the share of one core the open loop's clients spent
// busy-waiting for their due times over a phase of dur.
func spinCoreShare(answers []answer, dur time.Duration) float64 {
	var spun time.Duration
	for _, a := range answers {
		spun += a.Spun
	}
	return spun.Seconds() / dur.Seconds()
}

func latenciesMicros(answers []answer) []float64 {
	out := make([]float64, len(answers))
	for i, a := range answers {
		out[i] = a.latencyMicros()
	}
	return out
}
