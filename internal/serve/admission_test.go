package serve

// Admission control: the in-flight row budget refuses work past its limit
// with 429 + Retry-After, tightens to the observed service rate, never
// wedges an idle server, and releases its rows so later calls score
// normally.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestAdmissionRejectsWhenSaturated reserves most of the in-flight row
// budget, checks the next call is refused with 429 + Retry-After, then
// releases the reservation and checks a follow-up call scores normally.
func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	c := newCounters()
	p := NewPredictor(c)
	mv := predictModel()

	sixRows := func(base float64) *PredictRequest {
		ins := make([][]float64, 6)
		for i := range ins {
			ins[i] = []float64{base + float64(i), 1, -1, 0.5}
		}
		return &PredictRequest{Instances: ins}
	}

	const reserved = maxInFlightRows - 2
	if _, ok := p.adm.admit(reserved); !ok {
		t.Fatal("idle admitter refused the reservation")
	}
	resp := AcquirePredictResponse()
	err := p.Predict(context.Background(), mv, sixRows(100), resp) // 6 more rows than the cap leaves: refused
	resp.Release()
	var he *httpError
	if err == nil {
		t.Fatal("over-budget call was admitted")
	}
	if !errors.As(err, &he) || he.status != http.StatusTooManyRequests {
		t.Fatalf("got %v, want a 429 httpError", err)
	}
	if he.retryAfter < time.Second {
		t.Fatalf("retryAfter = %v, want >= 1s", he.retryAfter)
	}
	if got := c.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	p.adm.done(reserved)
	req := sixRows(1)
	want := AcquirePredictResponse()
	defer want.Release()
	if err := NewPredictor(nil).Predict(context.Background(), mv, req, want); err != nil {
		t.Fatal(err)
	}
	got := AcquirePredictResponse()
	defer got.Release()
	if err := p.Predict(context.Background(), mv, req, got); err != nil {
		t.Fatalf("call after the budget drained: %v", err)
	}
	sameBits(t, "scores", got.Scores, want.Scores)
	if n := c.inFlightRows.Load(); n != 0 {
		t.Fatalf("in-flight rows = %d after the calls finished, want 0", n)
	}
}

// TestAdmitterIdleAlwaysAdmits: a request larger than the whole budget must
// be admitted when the server is idle — the limit can never wedge traffic
// out entirely.
func TestAdmitterIdleAlwaysAdmits(t *testing.T) {
	a := newAdmitter(nil)
	if _, ok := a.admit(maxInFlightRows + 100); !ok {
		t.Fatal("idle admitter refused the first request")
	}
	if _, ok := a.admit(1); ok {
		t.Fatal("saturated admitter accepted more work")
	}
	a.done(maxInFlightRows + 100)
	if _, ok := a.admit(1); !ok {
		t.Fatal("drained admitter refused a small request")
	}
	a.done(1)
}

// TestAdmitterLatencyDerivedLimit: once a service rate is observed, the
// effective limit tightens to rate·targetLatency below the hard cap.
func TestAdmitterLatencyDerivedLimit(t *testing.T) {
	a := newAdmitter(nil)
	a.observeRate(1000, time.Second) // 1000 rows/s -> limit 50 rows
	if got := a.limit(); got != 50 {
		t.Fatalf("limit = %d, want 50", got)
	}
	if _, ok := a.admit(5); !ok {
		t.Fatal("under-limit request refused")
	}
	retry, ok := a.admit(2000)
	if ok {
		t.Fatal("admitted 2000 rows against a 50-row limit")
	}
	// Backlog of ~1955 rows over the limit at 1000 rows/s needs ~2s.
	if retry < time.Second || retry > 10*time.Second {
		t.Fatalf("retryAfter = %v, want ~2s", retry)
	}
	a.done(5)
}

// TestRetryAfterHeader checks the HTTP layer surfaces an admission refusal
// as 429 with a whole-seconds Retry-After header.
func TestRetryAfterHeader(t *testing.T) {
	s := &Server{counters: newCounters()}
	h := s.wrap("x", func(r *http.Request) (any, error) {
		return nil, retryError(90*time.Second, 5)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "90" {
		t.Fatalf("Retry-After = %q, want \"90\"", got)
	}
}
