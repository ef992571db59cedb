package serve

// Job-manager concurrency coverage, run under -race in CI: concurrent
// submissions, cancellations, pause/resume prodding, status polling and
// interval checkpointing over a bounded pool, followed by a graceful
// shutdown — no deadlocks, no lost jobs, every survivor in a sane state.

import (
	"bufio"
	"context"
	"encoding/json"
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
	"ml4all/internal/obs"
	"ml4all/internal/synth"
)

func testManager(t *testing.T, cfg Config) (*Manager, *Registry) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.System = servingSystem()
	reg, err := OpenRegistry(filepath.Join(cfg.Dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(cfg, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, reg
}

func TestManagerConcurrentSubmitCancelShutdown(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "race-train", Task: data.TaskSVM,
		N: 800, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 9,
	})
	script := fmt.Sprintf("run svm on %s having epsilon 0.001, max iter 60;", trainPath)

	mgr, reg := testManager(t, Config{
		Pool:            3,
		CheckpointEvery: time.Millisecond, // exercise checkpoint writes under load
	})

	const submitters, perSubmitter = 4, 3
	ids := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				j, err := mgr.Submit(script, fmt.Sprintf("race-%d-%d", g, k))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- j.ID
			}
		}(g)
	}

	// Cancellers: cancel every third job as it appears. Pollers: hammer the
	// status surface the HTTP layer reads. Prodders: pause/resume whatever
	// happens to be running (both calls may legitimately refuse).
	done := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		n := 0
		for id := range ids {
			n++
			if n%3 == 0 {
				mgr.Cancel(id) // may race completion; both outcomes are legal
			}
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, st := range mgr.List() {
				if st.State == JobRunning {
					mgr.Pause(st.ID)
					mgr.Resume(st.ID)
				}
				_ = st.Iteration
			}
			mgr.StateCounts()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(ids)

	// Every job must settle; paused stragglers (a pause that landed right
	// before its resume was refused) are nudged back in.
	deadline := time.Now().Add(60 * time.Second)
	for {
		counts := mgr.StateCounts()
		settled := counts[JobCompleted] + counts[JobFailed] + counts[JobCancelled]
		if settled == submitters*perSubmitter {
			break
		}
		if counts[JobPaused] > 0 {
			for _, st := range mgr.List() {
				if st.State == JobPaused {
					mgr.Resume(st.ID)
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %v", counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	aux.Wait()

	for _, st := range mgr.List() {
		switch st.State {
		case JobCompleted:
			if st.Version == 0 {
				t.Errorf("%s completed without publishing", st.ID)
			}
			if _, ok := reg.Get(st.Model, st.Version); !ok {
				t.Errorf("%s published %s@%d but the registry lacks it", st.ID, st.Model, st.Version)
			}
		case JobCancelled, JobFailed:
			if st.State == JobFailed {
				t.Errorf("%s failed: %s", st.ID, st.Error)
			}
		default:
			t.Errorf("%s left non-terminal: %s", st.ID, st.State)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(script, "late"); err == nil {
		t.Fatal("submit after shutdown must fail")
	}
}

func TestManagerPauseResume(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "pause-train", Task: data.TaskLogisticRegression,
		N: 1500, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 10,
	})
	script := fmt.Sprintf("run logistic on %s having epsilon 0.0000000000000000001, max iter 800;", trainPath)

	dir := t.TempDir()
	cfg := Config{Dir: dir, Pool: 1, CheckpointEvery: -1}
	cfg.stepHook = func(string, int) { time.Sleep(100 * time.Microsecond) }
	mgr, _ := testManager(t, cfg)
	defer mgr.Shutdown(context.Background())

	j, err := mgr.Submit(script, "pausable")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j.Status, JobRunning, 30*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Iteration < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if err := mgr.Pause(j.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j.Status, JobPaused, 30*time.Second)
	if st.Iteration == 0 {
		t.Fatal("paused with no recorded progress")
	}
	if _, ok := mgr.Job(j.ID); !ok {
		t.Fatalf("job vanished while paused")
	}
	if err := mgr.Pause(j.ID); err == nil {
		t.Fatal("pausing a paused job must refuse")
	}
	if err := mgr.Resume(j.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, j.Status, JobCompleted, 60*time.Second)
	if final.Iteration != 800 {
		t.Fatalf("resumed job ran %d iterations, want the full 800", final.Iteration)
	}
	if err := mgr.Cancel(j.ID); err == nil {
		t.Fatal("cancelling a completed job must refuse")
	}
}

func TestManagerCancelQueuedAndRunning(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "cancel-train", Task: data.TaskLogisticRegression,
		N: 1500, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 11,
	})
	script := fmt.Sprintf("run logistic on %s having epsilon 0.0000000000000000001, max iter 800;", trainPath)

	cfg := Config{Pool: 1, CheckpointEvery: -1}
	cfg.stepHook = func(string, int) { time.Sleep(100 * time.Microsecond) }
	mgr, _ := testManager(t, cfg)
	defer mgr.Shutdown(context.Background())

	running, err := mgr.Submit(script, "will-cancel-running")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := mgr.Submit(script, "will-cancel-queued")
	if err != nil {
		t.Fatal(err)
	}
	// The queued job holds no slot (pool=1): cancel settles it immediately.
	if err := mgr.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.Status(); st.State != JobCancelled {
		t.Fatalf("queued job is %s after cancel", st.State)
	}
	waitState(t, running.Status, JobRunning, 30*time.Second)
	if err := mgr.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, running.Status, JobCancelled, 30*time.Second)
	if st.Iteration >= 800 {
		t.Fatalf("job ran to completion (%d iterations) despite the cancel", st.Iteration)
	}
}

// TestSettledJobStatusSurvivesRestart: a completed job's status — its
// outcome included: delta, converged, the published version — reads the
// same from a fresh manager on the same directory as it did before the
// restart.
func TestSettledJobStatusSurvivesRestart(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "settled-train", Task: data.TaskSVM,
		N: 800, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 9,
	})
	dir := t.TempDir()
	mgr, _ := testManager(t, Config{Dir: dir, Pool: 1})
	j, err := mgr.Submit(fmt.Sprintf("run svm on %s having epsilon 0.001, max iter 60;", trainPath), "settled")
	if err != nil {
		t.Fatal(err)
	}
	before := waitState(t, j.Status, JobCompleted, 30*time.Second)
	if before.Version == 0 || before.Iteration == 0 || !before.Converged {
		t.Fatalf("completed job reports no outcome: %+v", before)
	}
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	mgr2, _ := testManager(t, Config{Dir: dir, Pool: 1})
	defer mgr2.Shutdown(context.Background())
	j2, ok := mgr2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s lost across the restart", j.ID)
	}
	if after := j2.Status(); after != before {
		t.Fatalf("status after the restart %+v, before %+v", after, before)
	}
}

// TestManagerFailedSubmissionIsActionable pins the satellite contract: a job
// whose statement cannot bind fails with the statement's source position.
func TestManagerFailedSubmissionIsActionable(t *testing.T) {
	mgr, _ := testManager(t, Config{Pool: 1})
	defer mgr.Shutdown(context.Background())

	// Parse errors surface synchronously, with position.
	if _, err := mgr.Submit("run logistic banana;", ""); err == nil {
		t.Fatal("unparsable script must fail at submit")
	}
	// Bind errors surface asynchronously on the job, still positioned.
	j, err := mgr.Submit("run logistic on /does/not/exist.txt having max iter 5;", "doomed")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !j.Status().State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job never settled: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	st := j.Status()
	if st.State != JobFailed {
		t.Fatalf("job is %s, want failed", st.State)
	}
	if want := "statement at 1:1"; !strings.Contains(st.Error, want) {
		t.Fatalf("failure lacks position %q: %q", want, st.Error)
	}
}

// TestManagerCancelBeatsPendingPause pins the fixed race: a cancel arriving
// after a pause request but before the runner's next iteration edge must
// cancel the job, not strand it paused.
func TestManagerCancelBeatsPendingPause(t *testing.T) {
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: "cancel-pause-train", Task: data.TaskLogisticRegression,
		N: 1500, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 12,
	})
	script := fmt.Sprintf("run logistic on %s having epsilon 0.0000000000000000001, max iter 800;", trainPath)

	// Gate the runner inside the step hook so the test can act strictly
	// between two iteration edges.
	gated := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{Pool: 1, CheckpointEvery: -1}
	cfg.stepHook = func(_ string, iter int) {
		if iter == 5 {
			once.Do(func() { close(gated) })
			<-release
		}
	}
	mgr, _ := testManager(t, cfg)
	defer mgr.Shutdown(context.Background())

	j, err := mgr.Submit(script, "racy")
	if err != nil {
		t.Fatal(err)
	}
	<-gated // runner is mid-hook, before the next edge
	if err := mgr.Pause(j.ID); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	st := waitState(t, j.Status, JobCancelled, 30*time.Second)
	if st.State != JobCancelled {
		t.Fatalf("job settled as %s, want cancelled", st.State)
	}
}

// TestManagerFastMathPersistsAcrossRestart: a job's training tier comes from
// its script alone. A `having fastmath` job stopped mid-flight resumes on the
// fast tier — it finishes on the uninterrupted fast run's weights, bit for
// bit — and its ledger record says fastmath. The submit body has no tier
// field, and a job whose older manifest carries the removed per-submission
// opt-in without the knob is settled failed with the fix, never resumed on
// the exact tier.
func TestManagerFastMathPersistsAcrossRestart(t *testing.T) {
	script := staticRestartScript(t)
	fast := strings.Replace(script, "max iter 1200;", "max iter 1200, fastmath;", 1)
	if _, _, ledger := resumesAcrossRestart(t, servingSystem, fast, staticMidFlight); len(ledger) != 1 || !ledger[0].FastMath {
		t.Fatalf("ledger %+v, want one record on the fast tier", ledger)
	}

	_, ts := obsServer(t, t.TempDir())
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"script": script, "fastmath": true}, nil); code != http.StatusBadRequest {
		t.Fatalf("submit carrying fastmath returned %d, want 400", code)
	}

	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "job-0000")
	raw, err := json.Marshal(map[string]any{"id": "job-0000", "script": script, "model": "m", "fastmath": true, "state": "running"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "manifest.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mgr, _ := testManager(t, Config{Dir: dir, Pool: 1})
	defer mgr.Shutdown(context.Background())
	j, ok := mgr.Job("job-0000")
	if !ok {
		t.Fatal("job with an older manifest lost")
	}
	if st := j.Status(); st.State != JobFailed || !strings.Contains(st.Error, "having fastmath") || st.Iteration != 0 || mgr.Recovering() {
		t.Fatalf("older fastmath manifest loaded as %+v (recovering %v), want failed naming `having fastmath`", st, mgr.Recovering())
	}
}

// TestServedAdaptiveJobRecordsItsSwitch: an adaptive statement is a job like
// any other, and what its controller did is where a static job's plan choice
// is — the status and the model header carry the plan chain, the ledger
// record the plans, the switch and every re-fit, and the event stream a
// switch event between the progress events around it.
func TestServedAdaptiveJobRecordsItsSwitch(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Pool: 1, System: adaptiveSystem(), CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var st JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]string{"script": adaptiveScript(t, "adaptive-served")}, &st); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	final := waitState(t, func() JobStatus {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		return cur
	}, JobCompleted, 30*time.Second)
	mv, ok := srv.Registry().Get("m", 0)
	if !ok || final.Plan != adaptiveChain || mv.Model.PlanName != adaptiveChain {
		t.Fatalf("status plan %q, model %+v (found %v); want %s", final.Plan, mv, ok, adaptiveChain)
	}

	// The stream of a finished job replays and ends — after the runner has
	// appended the ledger record, which the job's status does not wait for.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []obs.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev obs.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("event %q: %v", data, err)
			}
			evs = append(evs, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	recs := srv.Manager().Ledger().Records()
	if len(recs) != 1 {
		t.Fatalf("ledger holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Plan != adaptiveChain || strings.Join(rec.Plans, "→") != adaptiveChain {
		t.Fatalf("record plan %q, plans %v", rec.Plan, rec.Plans)
	}
	if len(rec.Switches) != 1 || rec.Switches[0].Iter != adaptiveSwitchIter ||
		rec.Switches[0].From != rec.Plans[0] || rec.Switches[0].To != rec.Plans[1] ||
		rec.Switches[0].FittedA <= rec.Switches[0].SpecA || rec.Switches[0].Clock <= 0 {
		t.Fatalf("record switches: %+v", rec.Switches)
	}
	switches := 0
	for _, rf := range rec.Refits {
		if rf.Iter <= 0 || rf.Plan == "" || rf.Action == "" || rf.Reason == "" {
			t.Fatalf("incomplete refit record: %+v", rf)
		}
		if rf.Action == "switch" {
			switches++
		}
	}
	if len(rec.Refits) < 2 || switches != 1 {
		t.Fatalf("record refits (%d switching): %+v", switches, rec.Refits)
	}
	at := slices.IndexFunc(evs, func(ev obs.Event) bool { return ev.Type == "switch" })
	if at < 1 || at+1 >= len(evs) {
		t.Fatalf("no switch event inside the stream of %d events", len(evs))
	}
	if sw := evs[at]; sw.Plan != adaptiveChain || sw.Iter != adaptiveSwitchIter || sw.FittedA != rec.Switches[0].FittedA ||
		evs[at-1].Iter != adaptiveSwitchIter || evs[at+1].Iter != adaptiveSwitchIter+1 {
		t.Fatalf("switch event %+v between %+v and %+v", sw, evs[at-1], evs[at+1])
	}
}

// TestShutdownLeavesQueuedJobUnopened: when a runner finds a queued job and
// the shutdown ready at once, it must leave the job as it found it — queued,
// never optimized, no checkpoint — for the next manager on the directory.
// Go's select picks either ready case, so each round would catch a runner
// that claims the job with probability one half.
func TestShutdownLeavesQueuedJobUnopened(t *testing.T) {
	script := crashScript(t, "shutdown-queued", 41)
	for round := 0; round < 10; round++ {
		release, held := make(chan struct{}), make(chan struct{}, 1)
		cfg := Config{Pool: 1, CheckpointEvery: -1}
		cfg.stepHook = func(string, int) {
			select {
			case held <- struct{}{}:
			default:
			}
			<-release
		}
		mgr, _ := testManager(t, cfg)
		a, err := mgr.Submit(script, "a")
		if err != nil {
			t.Fatal(err)
		}
		<-held // job a is mid-run on the pool's only runner
		b, err := mgr.Submit(script, "b")
		if err != nil {
			t.Fatal(err)
		}
		stopped := make(chan struct{})
		go func() { stopManager(mgr); close(stopped) }()
		<-mgr.shutdown
		close(release)
		<-stopped

		if st := a.Status(); st.State != JobQueued || st.Iteration == 0 {
			t.Fatalf("round %d: the held job ended %s at iteration %d, want queued mid-run", round, st.State, st.Iteration)
		}
		if st := b.Status(); st.State != JobQueued || st.Plan != "" {
			t.Fatalf("round %d: the queued job ended %s on plan %q, want queued and unopened", round, st.State, st.Plan)
		}
		if ckpts := listCheckpoints(mgr.ckptFS, mgr.jobDir(b.ID)); len(ckpts) > 0 {
			t.Fatalf("round %d: the queued job has checkpoints %v", round, ckpts)
		}
		for _, sp := range b.Trace().Spans() {
			if sp.Name == "optimize" {
				t.Fatalf("round %d: the queued job was optimized after shutdown", round)
			}
		}
	}
}
