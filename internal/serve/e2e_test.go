package serve

// End-to-end acceptance for the serving subsystem:
//
//   - a declarative job submitted over HTTP, polled to completion and
//     predicted against must reproduce the offline Train + Evaluate path
//     bit-identically (same plan, same weights, same per-row predictions);
//   - a graceful shutdown mid-job leaves a checkpoint on disk, and a fresh
//     manager on the same directory resumes it to the same final weights the
//     never-interrupted offline run produces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/fault"
	"ml4all/internal/linalg"
	"ml4all/internal/metrics"
	"ml4all/internal/obs"
	"ml4all/internal/synth"
)

// servingSystem returns a System configured the way every side of these
// tests (offline reference, server, restarted server) must share: identical
// cluster, estimator and worker settings make planning and training
// deterministic across processes.
func servingSystem() *ml4all.System {
	sys := ml4all.NewSystem()
	sys.Estimator.SampleSize = 300
	sys.Estimator.TimeBudget = 2
	sys.Estimator.Seed = 1
	sys.Workers = 2
	return sys
}

// adaptiveSystem and adaptiveScript are the served form of the mis-estimation
// scenario planner.TestAdaptiveRescuesMisestimatedPlan runs in batch:
// speculation on a 1000-point sample makes batch-1000 MGD look
// near-deterministic, the optimizer commits to it, and the controller's check
// after iteration adaptiveSwitchIter moves the job to BGD. The same generator
// at 3 000 points instead of 19 531, so the crash sweep can afford it 99 times
// under the race detector; the full-size scenario's checkpoint/resume
// equivalence is the root package's TestAdaptiveJobResumeEquivalence.
func adaptiveSystem() *ml4all.System {
	sys := servingSystem()
	sys.Estimator.SampleSize = 1000
	sys.Estimator.SpecTolerance = 0.1
	sys.Estimator.TimeBudget = 3
	return sys
}

const (
	adaptiveSwitchIter = 50
	adaptiveChain      = "MGD-eager-shuffle→BGD"
)

func adaptiveSpec(name string) synth.Spec {
	return synth.Spec{
		Name: name, Task: data.TaskLogisticRegression,
		N: 3000, D: 40, Density: 0.6, Noise: 0.6, Margin: 0.5, Seed: 1,
	}
}

func adaptiveScript(t *testing.T, name string) string {
	t.Helper()
	trainPath, _ := writeDataset(t, adaptiveSpec(name))
	return fmt.Sprintf("m = run logistic on %s having epsilon 0.001, max iter 200, adaptive;", trainPath)
}

// writeDataset materializes a synthetic dataset as a text file (the form
// server jobs reference) and returns its path plus the in-memory dataset.
func writeDataset(t *testing.T, spec synth.Spec) (string, *data.Dataset) {
	t.Helper()
	ds := synth.MustGenerate(spec)
	path := filepath.Join(t.TempDir(), spec.Name+".txt")
	if err := os.WriteFile(path, []byte(strings.Join(ds.Raw, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ds
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches a URL and decodes the JSON response.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func waitState(t *testing.T, get func() JobStatus, want JobState, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := get()
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job settled as %s (error %q), want %s", st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last status %+v", want, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEndToEndServeMatchesOffline(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		trainPath, _ := writeDataset(t, synth.Spec{
			Name: "e2e-train", Task: data.TaskLogisticRegression,
			N: 1200, D: 24, Density: 0.4, Noise: 0.1, Margin: 1, Seed: 5,
		})
		_, testDS := writeDataset(t, synth.Spec{
			Name: "e2e-test", Task: data.TaskLogisticRegression,
			N: 300, D: 24, Density: 0.4, Noise: 0.1, Margin: 1, Seed: 6,
		})
		script := fmt.Sprintf("m = run logistic on %s having epsilon 0.001, max iter 150;", trainPath)
		serveMatchesOffline(t, servingSystem, script, testDS)
	})
	t.Run("adaptive", func(t *testing.T) {
		spec := adaptiveSpec("e2e-adaptive-test")
		spec.N, spec.Seed = 300, 2
		_, testDS := writeDataset(t, spec)
		plan := serveMatchesOffline(t, adaptiveSystem, adaptiveScript(t, "e2e-adaptive-train"), testDS)
		if plan != adaptiveChain {
			t.Fatalf("scenario drifted: the adaptive job executed %s, want %s", plan, adaptiveChain)
		}
	})
}

// serveMatchesOffline submits script to a fresh server on system() and holds
// the served job, model and predictions to the offline Exec + Evaluate path
// on another system(); it returns the plan the job executed.
func serveMatchesOffline(t *testing.T, system func() *ml4all.System, script string, testDS *data.Dataset) string {
	// Offline reference: the established Train path.
	ref := system()
	outs, err := ref.Exec(script)
	if err != nil {
		t.Fatal(err)
	}
	refModel := outs[0].Model
	refReport, err := ref.Evaluate(refModel, testDS)
	if err != nil {
		t.Fatal(err)
	}

	// The server, in-process.
	srv, err := New(Config{
		Dir: t.TempDir(), Pool: 1, CheckpointEvery: time.Millisecond,
		System: system(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var submitted JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": script}, &submitted); code != http.StatusOK {
		t.Fatalf("submit returned %d", code)
	}
	final := waitState(t, func() JobStatus {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+submitted.ID, &st)
		return st
	}, JobCompleted, 30*time.Second)
	if final.Version != 1 {
		t.Fatalf("published version %d, want 1", final.Version)
	}
	if final.Plan != refModel.PlanName {
		t.Fatalf("server chose plan %q, offline chose %q", final.Plan, refModel.PlanName)
	}
	if final.Iteration != refModel.Iterations {
		t.Fatalf("server trained %d iterations, offline %d", final.Iteration, refModel.Iterations)
	}

	// The published weights are bit-identical to the offline run's.
	mv, ok := srv.Registry().Get("m", 0)
	if !ok {
		t.Fatal("model m not in the registry")
	}
	if !mv.Model.Weights.Equal(refModel.Weights, 0) {
		t.Fatal("served weights differ from the offline Train path")
	}

	// Model metadata endpoint.
	var meta struct {
		Latest   int         `json:"latest"`
		Versions []modelInfo `json:"versions"`
	}
	if code := getJSON(t, ts.URL+"/v1/models/m", &meta); code != http.StatusOK {
		t.Fatalf("model get returned %d", code)
	}
	if meta.Latest != 1 || len(meta.Versions) != 1 {
		t.Fatalf("metadata = %+v", meta)
	}
	if v := meta.Versions[0]; v.Task != refModel.Task.String() ||
		v.Iterations != refModel.Iterations || v.Converged != refModel.Converged ||
		v.Features != len(refModel.Weights) {
		t.Fatalf("metadata mismatch: %+v vs %+v", v, refModel)
	}

	// Predict over the raw test lines: labels and scores must equal the
	// offline per-row path exactly, and the implied report must equal
	// Evaluate's bit for bit.
	var pr PredictResponse
	if code := postJSON(t, ts.URL+"/v1/models/m/predict", PredictRequest{Rows: testDS.Raw}, &pr); code != http.StatusOK {
		t.Fatalf("predict returned %d", code)
	}
	if pr.N != testDS.N() {
		t.Fatalf("predicted %d rows, sent %d", pr.N, testDS.N())
	}
	var sse float64
	var correct int
	for i := 0; i < testDS.N(); i++ {
		row := testDS.Mat.Row(i)
		wantScore := row.Dot(refModel.Weights)
		wantLabel := metrics.PredictScore(refModel.Task, wantScore)
		if pr.Scores[i] != wantScore {
			t.Fatalf("row %d: served score %g != offline %g", i, pr.Scores[i], wantScore)
		}
		if pr.Labels[i] != wantLabel {
			t.Fatalf("row %d: served label %g != offline %g", i, pr.Labels[i], wantLabel)
		}
		d := pr.Labels[i] - testDS.Mat.Label(i)
		sse += d * d
		if pr.Labels[i] == testDS.Mat.Label(i) {
			correct++
		}
	}
	if mse := sse / float64(testDS.N()); mse != refReport.MSE {
		t.Fatalf("served MSE %g != Evaluate %g", mse, refReport.MSE)
	}
	if acc := float64(correct) / float64(testDS.N()); acc != refReport.Accuracy {
		t.Fatalf("served accuracy %g != Evaluate %g", acc, refReport.Accuracy)
	}

	// Observability endpoints.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`ml4all_requests_total{route="predict"} 1`,
		fmt.Sprintf("ml4all_predict_rows_total %d", testDS.N()),
		`ml4all_requests_total{route="jobs.submit"} 1`,
		fmt.Sprintf("ml4all_kernel_backend_info{fast_backend=%q,cpu=%q} 1",
			linalg.FastBackend(), linalg.CPUFeatures()),
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, mbody)
		}
	}
	var health struct {
		Status        string         `json:"status"`
		Models        int            `json:"models"`
		Jobs          map[string]int `json:"jobs"`
		KernelBackend string         `json:"kernel_backend"`
		CPUFeatures   string         `json:"cpu_features"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if health.Status != "ok" || health.Models != 1 || health.Jobs[string(JobCompleted)] != 1 {
		t.Fatalf("healthz = %+v", health)
	}
	if health.KernelBackend != linalg.FastBackend() || health.CPUFeatures != linalg.CPUFeatures() {
		t.Fatalf("healthz backend = %q/%q, want %q/%q",
			health.KernelBackend, health.CPUFeatures, linalg.FastBackend(), linalg.CPUFeatures())
	}
	return final.Plan
}

// TestJobResumesAcrossRestart is the kill/restart acceptance: a manager shut
// down mid-job checkpoints it; a fresh manager on the same directory resumes
// from the checkpoint and converges to exactly the weights the offline,
// never-interrupted run produces.
func TestJobResumesAcrossRestart(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		resumesAcrossRestart(t, servingSystem, staticRestartScript(t), staticMidFlight)
	})
	// The adaptive job is shut down on either side of its switch: the first
	// manager's checkpoint then carries the controller before, or after, it
	// acted, and the second manager's run must cross, or not repeat, it.
	t.Run("adaptive before the switch", func(t *testing.T) {
		stopped, final, _ := resumesAcrossRestart(t, adaptiveSystem, adaptiveScript(t, "restart-adaptive"),
			func(st JobStatus) bool { return st.Iteration >= 10 })
		if stopped.Iteration >= adaptiveSwitchIter || stopped.Plan == adaptiveChain || final.Plan != adaptiveChain {
			t.Fatalf("stopped at iteration %d on %s, finished on %s; want the switch to %s after the restart",
				stopped.Iteration, stopped.Plan, final.Plan, adaptiveChain)
		}
	})
	t.Run("adaptive after the switch", func(t *testing.T) {
		resumesAcrossRestart(t, adaptiveSystem, adaptiveScript(t, "restart-adaptive"),
			func(st JobStatus) bool { return st.Plan == adaptiveChain })
	})
}

// staticRestartScript is a long static job: logistic gradients never vanish
// exactly, so with an unreachable tolerance it runs its full iteration budget
// — a steady run a test can interrupt mid-flight deterministically.
func staticRestartScript(t *testing.T) string {
	t.Helper()
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "restart-train", Task: data.TaskLogisticRegression,
		N: 3000, D: 24, Density: 0.4, Noise: 0.15, Margin: 1, Seed: 7,
	})
	return fmt.Sprintf("m = run logistic on %s having epsilon 0.0000000000000000001, max iter 1200;", trainPath)
}

func staticMidFlight(st JobStatus) bool { return st.Iteration >= 25 }

// TestResumedJobRecordsTheUninterruptedCurve: the ledger curve of a job
// resumed after a restart is the one a never-stopped served run records —
// the same iterations, the same error bits — not a curve that starts over at
// the resume iteration.
func TestResumedJobRecordsTheUninterruptedCurve(t *testing.T) {
	script := staticRestartScript(t)
	mgr, _ := testManager(t, Config{Pool: 1, CheckpointEvery: -1})
	defer mgr.Shutdown(context.Background())
	j, err := mgr.Submit(script, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j.Status, JobCompleted, 60*time.Second)
	want := mgr.Ledger().Records()

	_, _, got := resumesAcrossRestart(t, servingSystem, script, staticMidFlight)
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("ledgers hold %d (uninterrupted) and %d (resumed) records, want 1 each", len(want), len(got))
	}
	wc, gc := want[0].Curve, got[0].Curve
	if len(wc) == 0 || len(gc) != len(wc) {
		t.Fatalf("resumed curve has %d points, uninterrupted %d", len(gc), len(wc))
	}
	for i := range wc {
		if gc[i].Iter != wc[i].Iter || math.Float64bits(gc[i].Err) != math.Float64bits(wc[i].Err) {
			t.Fatalf("curve point %d: resumed %+v, uninterrupted %+v", i, gc[i], wc[i])
		}
	}
}

// resumesAcrossRestart runs script under a throttled manager until the job's
// status satisfies midFlight, shuts that manager down, and holds what a fresh
// manager on the same directory finishes to the offline, never-interrupted
// run. It returns the job's status at the shutdown and at the end, and the
// second manager's ledger.
func resumesAcrossRestart(t *testing.T, system func() *ml4all.System, script string, midFlight func(JobStatus) bool) (stopped, final JobStatus, ledger []obs.Record) {
	ref := system()
	outs, err := ref.Exec(script)
	if err != nil {
		t.Fatal(err)
	}
	refModel := outs[0].Model
	if refModel.Iterations < 200 {
		t.Fatalf("restart test needs a long job; reference ran only %d iterations", refModel.Iterations)
	}

	dir := t.TempDir()
	reg1, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond}
	// Throttle the first manager's iterations so the job is reliably
	// mid-flight when the shutdown lands; the resumed manager runs unthrottled.
	throttled := cfg
	throttled.System = system()
	throttled.stepHook = func(string, int) { time.Sleep(200 * time.Microsecond) }
	mgr1, err := NewManager(throttled, reg1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr1.Submit(script, "")
	if err != nil {
		t.Fatal(err)
	}

	// Let it get properly mid-flight, then shut the manager down.
	deadline := time.Now().Add(30 * time.Second)
	for !midFlight(j.Status()) {
		if st := j.Status(); st.State.terminal() {
			t.Fatalf("job settled prematurely: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got mid-flight: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	stopped = j.Status()
	if stopped.State != JobQueued {
		t.Fatalf("after shutdown job is %s, want re-queueable (queued); error %q", stopped.State, stopped.Error)
	}
	if stopped.Iteration >= refModel.Iterations {
		t.Fatalf("job finished (%d iterations) before the shutdown; nothing was interrupted", stopped.Iteration)
	}
	if ckpts := listCheckpoints(fault.OS, filepath.Join(dir, "jobs", j.ID)); len(ckpts) == 0 {
		t.Fatal("shutdown left no checkpoint")
	}

	// A fresh manager on the same directory resumes and finishes the job.
	reg2, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.System = system()
	mgr2, err := NewManager(cfg, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Shutdown(context.Background())
	j2, ok := mgr2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", j.ID)
	}
	final = waitState(t, j2.Status, JobCompleted, 60*time.Second)
	if final.Iteration != refModel.Iterations || final.Plan != refModel.PlanName {
		t.Fatalf("resumed job ran %d iterations of %s, offline ran %d of %s", final.Iteration, final.Plan, refModel.Iterations, refModel.PlanName)
	}
	mv, ok := reg2.Get("m", 0)
	if !ok {
		t.Fatal("resumed job published no model")
	}
	if !mv.Model.Weights.Equal(refModel.Weights, 0) {
		t.Fatal("resumed weights differ from the never-interrupted offline run")
	}
	if mv.Model.Converged != refModel.Converged {
		t.Fatalf("resumed converged=%v, offline %v", mv.Model.Converged, refModel.Converged)
	}
	return stopped, final, mgr2.Ledger().Records()
}

// TestDivergedJobIsNotPublished: a job whose trainer ends with non-finite
// weights settles failed, says why and where, closes its event stream with
// that state, and leaves the registry alone — the version published before
// it is still `latest` and still answers predicts.
func TestDivergedJobIsNotPublished(t *testing.T) {
	trainPath, ds := writeDataset(t, synth.Spec{
		Name: "diverge-train", Task: data.TaskLinearRegression,
		N: 1200, D: 24, Density: 0.4, Noise: 0.1, Seed: 5,
	})
	srv, err := New(Config{Dir: t.TempDir(), Pool: 1, System: servingSystem()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	submit := func(having string) func() JobStatus {
		var st JobStatus
		script := fmt.Sprintf("m = run leastsquares on %s having %s;", trainPath, having)
		if code := postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": script}, &st); code != http.StatusOK {
			t.Fatalf("submit returned %d", code)
		}
		return func() JobStatus {
			var cur JobStatus
			getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
			return cur
		}
	}
	predict := func() PredictResponse {
		var pr PredictResponse
		if code := postJSON(t, ts.URL+"/v1/models/m/predict", PredictRequest{Rows: ds.Raw[:8]}, &pr); code != http.StatusOK {
			t.Fatalf("predict returned %d", code)
		}
		return pr
	}

	good := waitState(t, submit("epsilon 0.001, max iter 150"), JobCompleted, 30*time.Second)
	if good.Version != 1 {
		t.Fatalf("published version %d, want 1", good.Version)
	}
	before := predict()

	bad := waitState(t, submit("max iter 150 using step 1e6"), JobFailed, 30*time.Second)
	want := fmt.Sprintf("diverged at iteration %d: non-finite weights", bad.Iteration)
	if bad.Error != want || bad.Iteration == 0 || bad.Iteration == 150 || bad.Version != 0 {
		t.Fatalf("diverged job settled as %+v, want error %q", bad, want)
	}
	var page struct {
		Events []obs.Event `json:"events"`
		Closed bool        `json:"closed"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+bad.ID+"/events?once", &page)
	if n := len(page.Events); !page.Closed || n == 0 || page.Events[n-1].State != string(JobFailed) {
		t.Fatalf("event stream of the diverged job: closed=%v, events %+v", page.Closed, page.Events)
	}

	mv, ok := srv.Registry().Get("m", 0)
	if !ok || mv.Version != 1 || !mv.Model.Weights.IsFinite() {
		t.Fatalf("latest after the diverged job: %+v (found %v)", mv, ok)
	}
	after := predict()
	if after.Version != 1 || !reflect.DeepEqual(after.Scores, before.Scores) {
		t.Fatalf("predict after the diverged job: version %d scores %v, before %v", after.Version, after.Scores, before.Scores)
	}
}
