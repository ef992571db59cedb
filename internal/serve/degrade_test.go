package serve

// Graceful-degradation acceptance: the predict pipeline's entry-time
// deadline check, request-body caps, the recovering 503 gate, and the
// hardened http.Server edges.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ml4all/internal/data"
	"ml4all/internal/synth"
)

// TestPredictExpiredContextRejectedUpfront pins the entry check: a context
// already expired at the call returns 503 before any parsing or admission.
func TestPredictExpiredContextRejectedUpfront(t *testing.T) {
	p := NewPredictor(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := AcquirePredictResponse()
	defer resp.Release()
	err := p.Predict(ctx, regressionModel(), &PredictRequest{Instances: [][]float64{{1}}}, resp)
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusServiceUnavailable {
		t.Fatalf("expired-context predict = %v, want 503 httpError", err)
	}
}

// TestBodyCapReturns413 pins the request-body cap: a predict body over
// Config.MaxBodyBytes is refused with 413, and a reasonable one still works.
func TestBodyCapReturns413(t *testing.T) {
	srv, err := New(Config{
		Dir: t.TempDir(), Pool: 1, System: servingSystem(),
		MaxBodyBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if _, err := srv.Registry().Publish("m", regressionModel().Model); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := fmt.Sprintf(`{"instances":[[%s1]]}`, strings.Repeat("1,", 600))
	resp, err := http.Post(ts.URL+"/v1/models/m/predict", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413", resp.StatusCode)
	}

	// Under the cap, the same route still scores.
	small := []byte(`{"instances":[[1,2]]}`)
	resp2, err := http.Post(ts.URL+"/v1/models/m/predict", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small body returned %d, want 200", resp2.StatusCode)
	}
}

// TestHandlerPanicReturns500 pins the HTTP panic boundary: a panic inside a
// handler becomes a 500 (with the recovered-panic counter bumped) and the
// server keeps answering.
func TestHandlerPanicReturns500(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Pool: 1, System: servingSystem()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := srv.wrap("boom", func(r *http.Request) (any, error) {
		panic("handler exploded")
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", h)
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out map[string]string
	if code := getJSON(t, ts.URL+"/boom", &out); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", code)
	}
	if !strings.Contains(out["error"], "handler exploded") {
		t.Fatalf("500 body does not surface the panic: %v", out)
	}
	if got := srv.counters.FaultTotals().RecoveredPanics; got != 1 {
		t.Fatalf("recovered-panics counter = %d, want 1", got)
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz after panic returned %d", code)
	}
}

// TestSubmitShedsWhileRecovering pins the degraded-restart mode: while the
// manager replays jobs interrupted by a crash, new submissions get 503 +
// Retry-After; once replay finishes they are accepted again. Predict-side
// routes stay up throughout.
func TestSubmitShedsWhileRecovering(t *testing.T) {
	script := crashScript(t, "recovering-train", 26)
	dir := t.TempDir()

	// Interrupt a manager holding two jobs on a one-slot pool: job A
	// mid-flight with checkpoints, job B still queued. Both are resumable,
	// so the restarted manager recovers with a backlog.
	reg1, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond, System: servingSystem()}
	cfg1.stepHook = func(string, int) { time.Sleep(200 * time.Microsecond) }
	mgr1, err := NewManager(cfg1, reg1, nil)
	if err != nil {
		t.Fatal(err)
	}
	jA, err := mgr1.Submit(script, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr1.Submit(script, "b"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for jA.Status().Iteration < 10 {
		if st := jA.Status(); st.State.terminal() {
			t.Fatalf("job settled prematurely: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got mid-flight: %+v", jA.Status())
		}
		time.Sleep(time.Millisecond)
	}
	stopManager(mgr1)

	// Restart with the first replayed step gated: job A reopens (one of two
	// replays done) and then blocks, holding the manager in Recovering for
	// as long as the probe needs.
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	cfg := Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond, System: servingSystem()}
	cfg.stepHook = func(string, int) { <-release }
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := srv.Manager()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if !mgr.Recovering() {
		t.Fatal("manager with an interrupted job on disk does not report recovering")
	}
	raw, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"script":%q}`, script))))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during recovery returned %d, want 503", raw.StatusCode)
	}
	if raw.Header.Get("Retry-After") == "" {
		t.Fatal("recovery 503 carries no Retry-After")
	}
	// Non-submission routes keep serving while degraded.
	var jobs map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("job listing during recovery returned %d", code)
	}

	// Release the gate; replay drains and submissions flow again.
	unblock()
	deadline = time.Now().Add(60 * time.Second)
	for mgr.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("manager never finished recovering")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var st JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": script}, &st); code != http.StatusOK {
		t.Fatalf("submit after recovery returned %d", code)
	}
}

// TestSubmitQueueFullReturns503: a full job queue is the server's capacity,
// not the client's mistake — the refused submit is a 503 with Retry-After,
// like the recovering gate's, and leaves no job behind in the listing or on
// disk for the retry to pile onto.
func TestSubmitQueueFullReturns503(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	dir := t.TempDir()
	srv, err := New(Config{Dir: dir, Pool: 1, QueueDepth: 1, System: servingSystem(), CheckpointEvery: -1,
		stepHook: func(string, int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := map[string]string{"script": crashScript(t, "queue-full-train", 31)}
	var st JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs", body, &st); code != http.StatusOK {
		t.Fatalf("first submit returned %d", code)
	}
	running, _ := srv.Manager().Job(st.ID)
	waitState(t, running.Status, JobRunning, 30*time.Second) // held in its first step
	if code := postJSON(t, ts.URL+"/v1/jobs", body, &st); code != http.StatusOK {
		t.Fatalf("second submit (fills the queue) returned %d", code)
	}
	jobsOnDisk := func() int {
		entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	listed, onDisk := len(srv.Manager().List()), jobsOnDisk()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit to a full queue returned %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n, d := len(srv.Manager().List()), jobsOnDisk(); n != listed || d != onDisk {
		t.Fatalf("refused submit left a job behind: %d listed, %d in the jobs dir; want %d, %d", n, d, listed, onDisk)
	}
}

// TestHTTPServerHardenedEdges pins that the stock listener carries the
// slow-client protections the ops docs promise.
func TestHTTPServerHardenedEdges(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Pool: 1, System: servingSystem()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	hs := srv.HTTPServer(":0")
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 ||
		hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
		t.Fatalf("HTTPServer leaves an edge unbounded: %+v", hs)
	}
	if hs.Handler == nil || hs.Addr != ":0" {
		t.Fatal("HTTPServer not wired to the service handler")
	}
}

// FuzzSubmitBody posts arbitrary bodies to the submit route of a one-runner
// server with a two-slot queue. The answer is a 200 carrying a JobStatus
// whose job is in the listing, a 400 or 413 carrying {"error": …}, or a 503
// with Retry-After (the queue is full) — never another status, never a
// bodyless response, never a panic.
func FuzzSubmitBody(f *testing.F) {
	spec := synth.Spec{Name: "fuzz-submit", Task: data.TaskLogisticRegression, N: 200, D: 5, Density: 1, Noise: 0.1, Margin: 1, Seed: 3}
	train := filepath.Join(f.TempDir(), "train.txt")
	if err := os.WriteFile(train, []byte(strings.Join(synth.MustGenerate(spec).Raw, "\n")+"\n"), 0o644); err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Dir: f.TempDir(), Pool: 1, QueueDepth: 2, System: servingSystem(), CheckpointEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	h := srv.Handler()
	script := fmt.Sprintf("m = run logistic on %s having epsilon 0.01, max iter 20;", train)
	for _, body := range []string{
		fmt.Sprintf(`{"script":%q}`, script),
		fmt.Sprintf(`{"script":%q,"model":"other.v2"}`, script),
		fmt.Sprintf(`{"script":%q,"model":"../escape"}`, script),
		fmt.Sprintf(`{"script":%q}`, script+script),
		fmt.Sprintf(`{"script":%q,"fastmath":true}`, script),
		`{"script":"m = run logistic on missing.txt;"}`,
		`{"script":"m = run"}`,
		`{"script":""}`,
		`{"script":1}`,
		`{}`,
		`null`,
		``,
		`{"script":"x`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Body.Len() == 0 {
			t.Fatalf("body %q: status %d with no body", body, rec.Code)
		}
		switch rec.Code {
		case http.StatusOK:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("body %q: 200 without a job status: %q (%v)", body, rec.Body, err)
			}
			if !slices.ContainsFunc(srv.Manager().List(), func(j JobStatus) bool { return j.ID == st.ID }) {
				t.Fatalf("body %q: accepted job %s is not listed", body, st.ID)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var out map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" {
				t.Fatalf("body %q: %d without an error message: %q", body, rec.Code, rec.Body)
			}
		case http.StatusServiceUnavailable:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatalf("body %q: 503 without Retry-After", body)
			}
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
