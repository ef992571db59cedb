package serve

// Observability acceptance for the serving subsystem (PR 10): a completed
// job must leave a ledger record carrying the dataset fingerprint, the
// observed T(ε) curve and the weights hash; its span timeline and live event
// stream must be served over HTTP; and the whole surface must survive a
// manager restart.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ml4all/internal/data"
	"ml4all/internal/obs"
	"ml4all/internal/synth"
)

func ctxTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func obsServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Dir: dir, Pool: 1, System: servingSystem(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// Runs before the removal of dir: a job a test leaves in flight must stop
	// writing there first.
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestCompletedJobObservability(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "obs-train", Task: data.TaskLogisticRegression,
		N: 1200, D: 24, Density: 0.4, Noise: 0.1, Margin: 1, Seed: 5,
	})
	dir := t.TempDir()
	srv, ts := obsServer(t, dir)
	script := fmt.Sprintf("m = run logistic on %s having epsilon 0.08, max iter 400;", trainPath)

	var st JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": script}, &st); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	id := st.ID
	waitState(t, func() JobStatus {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &cur)
		return cur
	}, JobCompleted, 30*time.Second)

	// --- ledger record ---
	recs := srv.Manager().Ledger().Records()
	if len(recs) != 1 {
		t.Fatalf("ledger holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Kind != "job" || rec.JobID != id {
		t.Fatalf("record identity: %+v", rec)
	}
	if rec.Dataset.Fingerprint == "" || rec.Dataset.Points == 0 {
		t.Fatalf("record missing dataset identity: %+v", rec.Dataset)
	}
	if len(rec.Curve) == 0 {
		t.Fatal("record has empty observed T(ε) curve")
	}
	for i := 1; i < len(rec.Curve); i++ {
		if rec.Curve[i].Err >= rec.Curve[i-1].Err {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if rec.WeightsHash == "" || rec.Plan == "" || rec.Backend == "" {
		t.Fatalf("record missing plan/weights/backend: %+v", rec)
	}
	if !rec.Converged || rec.Iterations == 0 {
		t.Fatalf("record convergence state: %+v", rec)
	}
	if rec.Phases["optimize"] <= 0 || rec.Phases["train"] <= 0 {
		t.Fatalf("record phase totals missing optimize/train: %v", rec.Phases)
	}

	// --- trace timeline over HTTP ---
	var trace struct {
		Job   string     `json:"job"`
		Spans []obs.Span `json:"spans"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("trace: %d", code)
	}
	byName := map[string][]obs.Span{}
	for _, sp := range trace.Spans {
		if sp.EndNanos <= sp.StartNanos {
			t.Fatalf("span %q not closed: %+v", sp.Name, sp)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{"optimize", "speculate", "train"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %q span in timeline %v", name, byName)
		}
	}
	opt := byName["optimize"][0]
	for _, sp := range byName["speculate"] {
		if sp.Parent != opt.ID {
			t.Fatalf("speculate span %+v not parented to optimize %d", sp, opt.ID)
		}
	}

	// --- event log replay (long-poll mode) ---
	var page struct {
		Events []obs.Event `json:"events"`
		Closed bool        `json:"closed"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/events?once", &page); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if !page.Closed {
		t.Fatal("completed job's event stream not closed")
	}
	progress, terminal := 0, false
	for _, ev := range page.Events {
		switch ev.Type {
		case "progress":
			progress++
		case "state":
			if ev.State == string(JobCompleted) {
				terminal = true
			}
		}
	}
	if progress == 0 || !terminal {
		t.Fatalf("replay: %d progress events, terminal=%v (%+v)", progress, terminal, page.Events)
	}

	// --- /metrics exposes phase histograms and ledger counters ---
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`ml4all_phase_seconds_bucket{phase="train",le="+Inf"}`,
		`ml4all_phase_seconds_count{phase="optimize"}`,
		"ml4all_ledger_records_total 1",
		"ml4all_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// --- healthz carries build identity ---
	var health struct {
		Status string        `json:"status"`
		Build  obs.BuildInfo `json:"build"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Build.Version == "" || health.Build.Go == "" {
		t.Fatalf("healthz build info: %+v", health.Build)
	}

	// --- the ledger survives a restart ---
	ctx, cancel := ctxTimeout(t)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srv2, _ := obsServer(t, dir)
	defer func() {
		ctx2, cancel2 := ctxTimeout(t)
		defer cancel2()
		srv2.Shutdown(ctx2)
	}()
	recs2 := srv2.Manager().Ledger().Records()
	if len(recs2) != 1 || recs2[0].JobID != id || len(recs2[0].Curve) != len(rec.Curve) {
		t.Fatalf("ledger after restart: %+v", recs2)
	}
	// Terminal jobs reloaded from manifests are born with a closed stream.
	j, ok := srv2.Manager().Job(id)
	if !ok {
		t.Fatal("job vanished after restart")
	}
	if !j.Events().Closed() {
		t.Fatal("reloaded terminal job's event stream not closed")
	}
}

// TestEventsSSEStreamsBeforeCompletion pins the live half of the acceptance
// criterion: an SSE subscriber sees at least one progress event while the
// job is provably not yet complete, and the stream terminates when the job
// settles. Pausing the job before attaching makes the ordering
// deterministic — the subscriber replays progress from the retained window
// while the job sits paused, then resumes it and rides the stream to the
// terminal event.
func TestEventsSSEStreamsBeforeCompletion(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "sse-train", Task: data.TaskLogisticRegression,
		N: 3000, D: 24, Density: 0.4, Noise: 0.15, Margin: 1, Seed: 7,
	})
	srv, err := New(Config{
		Dir: t.TempDir(), Pool: 1, System: servingSystem(), CheckpointEvery: -1,
		// Slow each iteration down so the job provably outlives the pause
		// request even on a loaded machine.
		stepHook: func(string, int) { time.Sleep(100 * time.Microsecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stream ends before the runner has settled the job's directory:
	// drain the pool before TempDir's cleanup removes it.
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// An unreachable epsilon keeps the job running until max iter, so the
	// pause lands mid-run.
	script := fmt.Sprintf("m = run logistic on %s having epsilon 0.0000000000000000001, max iter 2000;", trainPath)

	var st JobStatus
	postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": script}, &st)
	get := func() JobStatus {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		return cur
	}
	waitState(t, get, JobRunning, 30*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for get().Iteration < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", get())
		}
		time.Sleep(time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/pause", nil, nil); code != http.StatusOK {
		t.Fatalf("pause: %d", code)
	}
	waitState(t, get, JobPaused, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	var sawProgress, sawTerminal, resumed bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: progress" && !resumed {
			// A progress frame delivered while the job is paused: it was
			// provably emitted (and observed) before completion.
			sawProgress = true
			if code := postJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/resume", nil, nil); code != http.StatusOK {
				t.Fatalf("resume: %d", code)
			}
			resumed = true
		}
		if strings.Contains(line, `"state":"completed"`) {
			sawTerminal = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawProgress {
		t.Fatal("no progress event observed before completion")
	}
	if !sawTerminal {
		t.Fatal("stream ended without the terminal state event")
	}
}

func TestEventsEndpointErrors(t *testing.T) {
	_, ts := obsServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events?once")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	var st JobStatus
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "err-train", Task: data.TaskLogisticRegression,
		N: 300, D: 10, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 3,
	})
	script := fmt.Sprintf("m = run logistic on %s having epsilon 0.01, max iter 50;", trainPath)
	postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": script}, &st)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?once&after=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad after param: %d", resp.StatusCode)
	}
}
