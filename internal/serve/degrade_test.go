package serve

// Graceful-degradation acceptance: the predict pipeline's entry-time
// deadline check, request-body caps, the recovering 503 gate, and the
// hardened http.Server edges.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPredictExpiredContextRejectedUpfront pins the entry check: a context
// already expired at the call returns 503 before any parsing or admission.
func TestPredictExpiredContextRejectedUpfront(t *testing.T) {
	p := NewPredictor(AdmissionConfig{Disabled: true}, nil)
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
	reg1, err := OpenRegistry(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := ManagerConfig{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond}
	cfg1.stepHook = func(string, int) { time.Sleep(200 * time.Microsecond) }
	mgr1, err := NewManager(cfg1, servingSystem(), reg1)
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
	// as long as the probe needs. The Server is assembled in-package because
	// the gate hook is test-only.
	reg, err := OpenRegistry(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	cfg := ManagerConfig{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond}
	cfg.stepHook = func(string, int) { <-release }
	mgr, err := NewManager(cfg, servingSystem(), reg)
	if err != nil {
		t.Fatal(err)
	}
	counters := newCounters()
	srv := &Server{
		cfg:       Config{Dir: dir, Pool: 1},
		manager:   mgr,
		registry:  reg,
		counters:  counters,
		predictor: NewPredictor(AdmissionConfig{Disabled: true}, counters),
		maxBody:   defaultMaxBodyBytes,
		started:   time.Now(),
	}
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
