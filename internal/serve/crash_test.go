package serve

// Crash-safety acceptance for the durability work:
//
//   - TestCrashpointSweep simulates a process kill at EVERY filesystem
//     injection point the checkpoint, manifest and registry paths go through
//     — during the run, again during the recovery that follows, and then on
//     a clean restart — and asserts the job still converges to weights
//     bit-identical to a never-interrupted run.
//   - TestCorruptNewestCheckpointFallsBack corrupts the newest retained
//     checkpoint on disk and pins that recovery detects it by checksum and
//     resumes from the next-older frame.
//   - TestCorruptModelVersionFallsBack corrupts the latest published model
//     file and pins that the registry entombs it and serves the previous
//     version, with the version number staying burned.
//   - TestJobPanicFailsJobNotProcess pins the serving-side panic boundary:
//     a panic inside the job drive fails that job with the stack captured,
//     and the manager keeps running other jobs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ml4all"
	"ml4all/internal/data"
	"ml4all/internal/fault"
	"ml4all/internal/synth"
)

// crashScript builds a deterministic multi-iteration job over a synthetic
// dataset. The unreachable tolerance makes the job run its full iteration
// budget, so there is always a mid-flight window to crash in.
func crashScript(t *testing.T, name string, seed int64) string {
	t.Helper()
	trainPath, _ := writeDataset(t, synth.Spec{
		Name: name, Task: data.TaskLogisticRegression,
		N: 1000, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: seed,
	})
	return fmt.Sprintf("m = run logistic on %s having epsilon 0.0000000000000000001, max iter 120;", trainPath)
}

// crashReference trains the script offline, uninterrupted — the weights every
// crashed-and-recovered run must reproduce bitwise.
func crashReference(t *testing.T, script string) *ml4all.Model {
	t.Helper()
	return crashReferenceOn(t, servingSystem, script)
}

func crashReferenceOn(t *testing.T, system func() *ml4all.System, script string) *ml4all.Model {
	t.Helper()
	outs, err := system().Exec(script)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0].Model
}

// waitCrashOrSettle polls until the injector simulates process death, every
// job reaches a terminal state, or the deadline passes (not an error: some
// points simply never fire in a given phase).
func waitCrashOrSettle(mgr *Manager, inj *fault.Injector, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if inj.Crashed() {
			return
		}
		settled := true
		for _, st := range mgr.List() {
			if !st.State.terminal() {
				settled = false
				break
			}
		}
		if settled {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopManager shuts a possibly-crashed manager down, ignoring the error: a
// crashed injector fails the shutdown checkpoints by design.
func stopManager(mgr *Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mgr.Shutdown(ctx)
}

// TestCrashpointSweep is the capstone: for every named injection point on the
// checkpoint, manifest and registry seams, phase 1 arms a kill at that point
// while a job is mid-flight, phase 2 arms the same kill during the recovery
// that follows, and phase 3 restarts cleanly — after which the published
// weights must be bit-identical to the uninterrupted reference. The
// submission ack is the durability boundary: faults arm only after Submit
// returns, because a job killed before its first manifest persist was never
// acknowledged and owes the client nothing. Every point takes a static job
// and an adaptive one through the three phases; the adaptive job's first kill
// is armed at submission on every other point and once the job has switched
// plans on the rest, so crashes land on both sides of the switch.
func TestCrashpointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crashpoint sweep is long")
	}
	script := crashScript(t, "sweep-train", 21)
	refModel := crashReference(t, script)
	adaptive := adaptiveScript(t, "sweep-adaptive")
	adaptiveRef := crashReferenceOn(t, adaptiveSystem, adaptive)
	if adaptiveRef.PlanName != adaptiveChain {
		t.Fatalf("scenario drifted: the adaptive reference executed %s, want %s", adaptiveRef.PlanName, adaptiveChain)
	}

	var points []string
	for _, tag := range []string{"ckpt", "manifest", "registry"} {
		points = append(points, fault.FSPoints(tag)...)
	}
	for i, point := range points {
		t.Run(point, func(t *testing.T) {
			t.Parallel()
			sweepPoint(t, point, servingSystem, script, refModel, nil)
			var switched func(JobStatus) bool
			if i%2 == 1 {
				switched = func(st JobStatus) bool { return st.Plan == adaptiveChain }
			}
			sweepPoint(t, point, adaptiveSystem, adaptive, adaptiveRef, switched)
		})
	}
}

// sweepPoint is one (point, job) cell of TestCrashpointSweep. arm, when
// non-nil, delays phase 1's kill until the job's status satisfies it.
func sweepPoint(t *testing.T, point string, system func() *ml4all.System, script string, refModel *ml4all.Model, arm func(JobStatus) bool) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond}

	// Phase 1: kill mid-run. The step hook throttles iterations so
	// the job is reliably mid-flight when the fault arms.
	inj1 := fault.New()
	reg1, err := OpenRegistry(filepath.Join(dir, "models"), inj1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := cfg
	cfg1.Fault = inj1
	cfg1.System = system()
	cfg1.stepHook = func(string, int) { time.Sleep(100 * time.Microsecond) }
	mgr1, err := NewManager(cfg1, reg1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr1.Submit(script, "")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); arm != nil && !arm(j.Status()); time.Sleep(time.Millisecond) {
		if st := j.Status(); st.State.terminal() || time.Now().After(deadline) {
			t.Fatalf("job never reached the state the kill arms in: %+v", st)
		}
	}
	inj1.Arm(fault.Crash(point))
	waitCrashOrSettle(mgr1, inj1, 30*time.Second)
	stopManager(mgr1)

	// Phase 2: the same kill armed from the start of recovery, so
	// crashes inside replay (manifest reads, checkpoint scans,
	// re-publish) are exercised too. Failing to even construct the
	// manager is a legitimate simulated death.
	inj2 := fault.New()
	inj2.Arm(fault.Crash(point))
	if reg2, err := OpenRegistry(filepath.Join(dir, "models"), inj2, nil); err == nil {
		cfg2 := cfg
		cfg2.Fault = inj2
		cfg2.System = system()
		if mgr2, err := NewManager(cfg2, reg2, nil); err == nil {
			waitCrashOrSettle(mgr2, inj2, 30*time.Second)
			stopManager(mgr2)
		} else if !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("phase-2 manager failed with a non-crash error: %v", err)
		}
	} else if !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("phase-2 registry failed with a non-crash error: %v", err)
	}

	// Phase 3: clean restart — recovery must finish the job.
	reg3, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.System = system()
	mgr3, err := NewManager(cfg, reg3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(mgr3)
	j3, ok := mgr3.Job(j.ID)
	if !ok {
		t.Fatalf("job %s lost across the crashes", j.ID)
	}
	final := waitState(t, j3.Status, JobCompleted, 60*time.Second)
	if final.Iteration != refModel.Iterations || final.Plan != refModel.PlanName {
		t.Fatalf("recovered job ran %d iterations of %s, reference ran %d of %s",
			final.Iteration, final.Plan, refModel.Iterations, refModel.PlanName)
	}
	mv, ok := reg3.Get("m", 0)
	if !ok {
		t.Fatal("recovered job published no model")
	}
	if !mv.Model.Weights.Equal(refModel.Weights, 0) {
		t.Fatalf("weights after crash at %s differ from the uninterrupted run", point)
	}
}

// runToCheckpointedStop drives a throttled job past a few checkpoints and
// shuts the manager down, leaving a re-queueable job with retained
// checkpoint frames on disk. Returns the job id.
func runToCheckpointedStop(t *testing.T, dir, script string) string {
	t.Helper()
	reg, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond, System: servingSystem()}
	cfg.stepHook = func(string, int) { time.Sleep(200 * time.Microsecond) }
	mgr, err := NewManager(cfg, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := mgr.Submit(script, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	jobDir := filepath.Join(dir, "jobs", j.ID)
	for j.Status().Iteration < 25 || len(listCheckpoints(fault.OS, jobDir)) < 2 {
		if st := j.Status(); st.State.terminal() {
			t.Fatalf("job settled prematurely: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never accumulated checkpoints: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
	stopManager(mgr)
	if st := j.Status(); st.State != JobQueued {
		t.Fatalf("after shutdown job is %s, want queued", st.State)
	}
	return j.ID
}

// TestCorruptNewestCheckpointFallsBack pins checksum-verified recovery: when
// the newest retained checkpoint is torn on disk, restart detects it (CRC
// mismatch, counted), falls back to the next-older frame, and still finishes
// with the uninterrupted run's exact weights.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	script := crashScript(t, "corrupt-ckpt-train", 22)
	refModel := crashReference(t, script)
	dir := t.TempDir()
	id := runToCheckpointedStop(t, dir, script)

	jobDir := filepath.Join(dir, "jobs", id)
	ckpts := listCheckpoints(fault.OS, jobDir)
	if len(ckpts) < 2 {
		t.Fatalf("need ≥2 retained checkpoints to fall back, have %v", ckpts)
	}
	newest := filepath.Join(jobDir, ckpts[0])
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // tear the payload; the CRC must catch it
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	counters := newCounters()
	reg, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond, System: servingSystem()}, reg, counters)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(mgr)
	j, ok := mgr.Job(id)
	if !ok {
		t.Fatalf("job %s lost", id)
	}
	waitState(t, j.Status, JobCompleted, 60*time.Second)
	mv, ok := reg.Get("m", 0)
	if !ok {
		t.Fatal("no model published")
	}
	if !mv.Model.Weights.Equal(refModel.Weights, 0) {
		t.Fatal("weights after checkpoint-corruption fallback differ from the uninterrupted run")
	}
	ft := counters.FaultTotals()
	if ft.CheckpointsCorrupt == 0 {
		t.Fatal("corrupted checkpoint was not counted as discarded")
	}
	if ft.CheckpointsVerified == 0 {
		t.Fatal("fallback frame was not counted as verified")
	}
}

// TestCorruptNewestCheckpointTruncated is the torn-write shape of the same
// fallback: the newest frame is cut short rather than bit-flipped.
func TestCorruptNewestCheckpointTruncated(t *testing.T) {
	script := crashScript(t, "truncate-ckpt-train", 23)
	refModel := crashReference(t, script)
	dir := t.TempDir()
	id := runToCheckpointedStop(t, dir, script)

	jobDir := filepath.Join(dir, "jobs", id)
	ckpts := listCheckpoints(fault.OS, jobDir)
	newest := filepath.Join(jobDir, ckpts[0])
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond, System: servingSystem()}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(mgr)
	j, ok := mgr.Job(id)
	if !ok {
		t.Fatalf("job %s lost", id)
	}
	waitState(t, j.Status, JobCompleted, 60*time.Second)
	mv, ok := reg.Get("m", 0)
	if !ok {
		t.Fatal("no model published")
	}
	if !mv.Model.Weights.Equal(refModel.Weights, 0) {
		t.Fatal("weights after truncated-checkpoint fallback differ from the uninterrupted run")
	}
}

// TestCorruptModelVersionFallsBack pins the registry's corruption fallback:
// a latest version whose file fails its checksum — or was cut at a line
// boundary before its checksum, which leaves a well-formed shorter model —
// is entombed on open, the previous good version serves as latest, and the
// burned number is never reissued.
func TestCorruptModelVersionFallsBack(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"bit-flip": func(raw []byte) []byte {
			raw[len(raw)/2] ^= 0x01
			return raw
		},
		"cut-before-trailer": func(raw []byte) []byte {
			lines := bytes.SplitAfter(raw, []byte("\n"))
			return bytes.Join(lines[:len(lines)-3], nil) // drops a weight, the trailer and the empty tail
		},
	} {
		t.Run(name, func(t *testing.T) { corruptModelVersionFallsBack(t, corrupt) })
	}
}

func corruptModelVersionFallsBack(t *testing.T, corrupt func([]byte) []byte) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m1 := &ml4all.Model{Task: data.TaskLinearRegression, Weights: []float64{1, 2, 3}}
	m2 := &ml4all.Model{Task: data.TaskLinearRegression, Weights: []float64{4, 5, 6}}
	if _, err := reg.Publish("m", m1); err != nil {
		t.Fatal(err)
	}
	mv2, err := reg.Publish("m", m2)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(mv2.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mv2.Path, corrupt(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	counters := newCounters()
	reg2, err := OpenRegistry(dir, nil, counters)
	if err != nil {
		t.Fatal(err)
	}
	latest, ok := reg2.Get("m", 0)
	if !ok {
		t.Fatal("corruption of v2 took the whole model down")
	}
	if latest.Version != 1 || !latest.Model.Weights.Equal(m1.Weights, 0) {
		t.Fatalf("latest after corruption = v%d, want fallback to v1", latest.Version)
	}
	if counters.FaultTotals().RegistryFallbacks != 1 {
		t.Fatalf("registry fallbacks = %d, want 1", counters.FaultTotals().RegistryFallbacks)
	}
	if _, err := os.Stat(filepath.Join(dir, "m", ".corrupt-"+versionFile(2))); err != nil {
		t.Fatalf("corrupt version was not entombed: %v", err)
	}
	// The burned number is not reissued: the next publish is v3, and a
	// further reopen still refuses to resurrect v2.
	mv3, err := reg2.Publish("m", m2)
	if err != nil {
		t.Fatal(err)
	}
	if mv3.Version != 3 {
		t.Fatalf("publish after entombment got v%d, want v3", mv3.Version)
	}
	reg3, err := OpenRegistry(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg3.Get("m", 2); ok {
		t.Fatal("entombed version v2 came back from the dead")
	}
}

// TestJobPanicFailsJobNotProcess pins the manager-level panic boundary: a
// panic in the job drive (here the step hook, standing in for any UDF or
// publish-path blow-up) fails that one job with the panic value and stack in
// its status, while the pool keeps serving other jobs.
func TestJobPanicFailsJobNotProcess(t *testing.T) {
	script := crashScript(t, "panic-train", 24)
	dir := t.TempDir()
	reg, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counters := newCounters()
	cfg := Config{Dir: dir, Pool: 1, CheckpointEvery: -1, System: servingSystem()}
	cfg.stepHook = func(id string, iter int) {
		if id == "job-0000" && iter == 5 {
			panic("operator exploded at iteration 5")
		}
	}
	mgr, err := NewManager(cfg, reg, counters)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(mgr)

	j1, err := mgr.Submit(script, "first")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !j1.Status().State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("panicking job never settled: %+v", j1.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := j1.Status()
	if st.State != JobFailed {
		t.Fatalf("panicking job settled as %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panicked") || !strings.Contains(st.Error, "operator exploded at iteration 5") {
		t.Fatalf("job error does not surface the panic: %q", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("job error carries no stack: %q", st.Error)
	}
	if counters.FaultTotals().RecoveredPanics == 0 {
		t.Fatal("recovered panic was not counted")
	}

	// The process — and the same pool slot — keeps working.
	j2, err := mgr.Submit(script, "second")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2.Status, JobCompleted, 60*time.Second)
	if _, ok := reg.Get("second", 0); !ok {
		t.Fatal("follow-up job published no model")
	}
}

// TestManifestTempsSwept pins the manifest-side .tmp sweep: stale temps
// stranded in a job directory by a crash are removed on the next startup.
func TestManifestTempsSwept(t *testing.T) {
	script := crashScript(t, "sweep-manifest-train", 25)
	dir := t.TempDir()
	id := runToCheckpointedStop(t, dir, script)

	jobDir := filepath.Join(dir, "jobs", id)
	stale := filepath.Join(jobDir, ".tmp-manifest.json-123456")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(filepath.Join(dir, "models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Dir: dir, Pool: 1, CheckpointEvery: time.Millisecond, System: servingSystem()}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(mgr)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale manifest temp survived startup: %v", err)
	}
	j, ok := mgr.Job(id)
	if !ok {
		t.Fatalf("job %s lost", id)
	}
	waitState(t, j.Status, JobCompleted, 60*time.Second)
}

// FuzzCheckpointFrame feeds the checkpoint-frame decoder arbitrary bytes —
// what recovery reads back from disk: it must never panic, any frame it
// accepts re-encodes to the same bytes, and any payload survives framing.
func FuzzCheckpointFrame(f *testing.F) {
	good := encodeCheckpointFrame([]byte("gob-encoded TrainState"))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0x01
	for _, s := range [][]byte{good, encodeCheckpointFrame(nil), good[:len(good)-3], flipped, good[:12], ckptMagic} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if p, err := decodeCheckpointFrame(raw); err == nil && !bytes.Equal(encodeCheckpointFrame(p), raw) {
			t.Fatalf("accepted frame %q re-encodes to %q", raw, encodeCheckpointFrame(p))
		}
		if p, err := decodeCheckpointFrame(encodeCheckpointFrame(raw)); err != nil || !bytes.Equal(p, raw) {
			t.Fatalf("payload %q framed decodes to %q, %v", raw, p, err)
		}
	})
}
