package ml4all

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/lang"
	"ml4all/internal/planner"
	"ml4all/internal/synth"
)

// The mis-estimation scenario of planner.TestAdaptiveRescuesMisestimatedPlan
// as a statement: speculation on a 1000-point sample makes batch-1000 MGD look
// near-deterministic, the optimizer commits to it, and the controller's check
// after iteration 75 switches the run to BGD.
const (
	adaptiveStmt   = `m = run logistic on skew having epsilon 0.0002, max iter 600, adaptive;`
	adaptiveSwitch = 75
	adaptiveChain  = "MGD-eager-shuffle→BGD"
)

// Generated on first use: the benchmarks in this package must not carry it.
var adaptiveData = sync.OnceValue(func() *data.Dataset {
	return synth.MustGenerate(synth.Spec{
		Name: "adaptive-skew", Task: data.TaskLogisticRegression,
		N: 19531, D: 40, Density: 0.6, Noise: 0.6, Margin: 0.5, Seed: 1,
	})
})

func adaptiveSystem() *System {
	sys := NewSystem()
	sys.Estimator.SampleSize = 1000
	sys.Estimator.SpecTolerance = 0.1
	sys.Estimator.TimeBudget = 3
	sys.Estimator.Seed = 1
	sys.RegisterDataset("skew", adaptiveData())
	return sys
}

func parseRun(t *testing.T, src string) *lang.Run {
	t.Helper()
	stmt, err := lang.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*lang.Run)
}

func stepTo(t *testing.T, j *TrainJob, iter int) {
	t.Helper()
	for !j.Done() && j.Iteration() < iter {
		if err := j.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptiveJobResumeEquivalence: an adaptive job checkpointed before, at
// and after its switch and resumed on a fresh System finishes on the same
// plan chain, iteration count, simulated clock and weight bits as the run
// that was never stopped — and that run is what Exec produces.
func TestAdaptiveJobResumeEquivalence(t *testing.T) {
	q := parseRun(t, adaptiveStmt)
	straight, err := adaptiveSystem().OpenJob(q, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, straight, math.MaxInt)
	want := straight.Model()
	if want.PlanName != adaptiveChain {
		t.Fatalf("scenario drifted: straight run executed %s, want %s", want.PlanName, adaptiveChain)
	}
	if sw := straight.Controller().History.Switches(); len(sw) != 1 || sw[0].Iter != adaptiveSwitch {
		t.Fatalf("scenario drifted: switches %+v, want one after iteration %d", sw, adaptiveSwitch)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	same := func(label string, got *Model) {
		t.Helper()
		if got.PlanName != want.PlanName || got.Iterations != want.Iterations || got.TrainTime != want.TrainTime ||
			got.Converged != want.Converged || !slices.EqualFunc(got.Weights, want.Weights, sameBits) {
			t.Fatalf("%s: %s, %d iterations, %v sim s; straight run: %s, %d, %v — or weights differ", label,
				got.PlanName, got.Iterations, got.TrainTime, want.PlanName, want.Iterations, want.TrainTime)
		}
	}

	outs, err := adaptiveSystem().Exec(adaptiveStmt)
	if err != nil {
		t.Fatal(err)
	}
	same("Exec", outs[0].Model)

	for _, at := range []int{10, adaptiveSwitch - 1, adaptiveSwitch, adaptiveSwitch + 1, 100, 400} {
		stopped, err := adaptiveSystem().OpenJob(q, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stepTo(t, stopped, at)
		state, err := stopped.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := adaptiveSystem().ResumeJob(q, state, JobOptions{})
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", at, err)
		}
		if resumed.Iteration() != at || resumed.PlanName() != stopped.PlanName() ||
			(at >= adaptiveSwitch) != (resumed.PlanName() == adaptiveChain) {
			t.Fatalf("checkpoint at %d resumed at %d on %s (stopped on %s)", at, resumed.Iteration(), resumed.PlanName(), stopped.PlanName())
		}
		stepTo(t, resumed, math.MaxInt)
		same("resumed from "+resumed.PlanName(), resumed.Model())
		if got, all := resumed.Controller().History, straight.Controller().History; len(got) != len(all) {
			t.Fatalf("checkpoint at %d: resumed history has %d checks, straight run %d", at, len(got), len(all))
		}
	}
}

// tamper rewrites an encoded checkpoint: the train state, and the controller
// state inside it when the checkpoint carries one.
func tamper(t *testing.T, state []byte, edit func(*engine.TrainState, *planner.ControllerState)) []byte {
	t.Helper()
	st, err := engine.DecodeTrainState(state)
	if err != nil {
		t.Fatal(err)
	}
	var cs planner.ControllerState
	had := len(st.Policy) > 0
	if had {
		if err := gob.NewDecoder(bytes.NewReader(st.Policy)).Decode(&cs); err != nil {
			t.Fatal(err)
		}
	}
	policy := st.Policy
	edit(st, &cs)
	if had && bytes.Equal(policy, st.Policy) { // edit left the raw bytes alone: re-encode its view
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&cs); err != nil {
			t.Fatal(err)
		}
		st.Policy = buf.Bytes()
	}
	out, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeJobChecksControllerState: the controller state arrives from disk.
// Every way it can disagree with the trainer state, the statement or the plan
// space fails ResumeJob with the error the serving layer answers by falling
// back to an older frame — none reaches the check, which would index with it.
func TestResumeJobChecksControllerState(t *testing.T) {
	adaptive := parseRun(t, adaptiveStmt)
	static := parseRun(t, strings.Replace(adaptiveStmt, ", adaptive", "", 1))
	checkpoint := func(q *lang.Run) []byte {
		j, err := adaptiveSystem().OpenJob(q, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stepTo(t, j, 100)
		state, err := j.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	adaptiveState, staticState := checkpoint(adaptive), checkpoint(static)
	for _, q := range []*lang.Run{adaptive, static} { // untampered, both resume
		state := staticState
		if q.Adaptive {
			state = adaptiveState
		}
		if _, err := adaptiveSystem().ResumeJob(q, state, JobOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	type edit = func(*engine.TrainState, *planner.ControllerState)
	for name, c := range map[string]struct {
		q     *lang.Run
		state []byte
		edit  edit
	}{
		"adaptive statement, static checkpoint": {adaptive, staticState, func(*engine.TrainState, *planner.ControllerState) {}},
		"static statement, adaptive checkpoint": {static, adaptiveState, func(*engine.TrainState, *planner.ControllerState) {}},
		"empty policy":                          {adaptive, adaptiveState, func(st *engine.TrainState, _ *planner.ControllerState) { st.Policy = nil }},
		"undecodable policy":                    {adaptive, adaptiveState, func(st *engine.TrainState, _ *planner.ControllerState) { st.Policy = []byte("not gob") }},
		"negative segment start":                {adaptive, adaptiveState, func(_ *engine.TrainState, cs *planner.ControllerState) { cs.SegStart = -1 }},
		"segment start past the iteration":      {adaptive, adaptiveState, func(_ *engine.TrainState, cs *planner.ControllerState) { cs.SegStart = 101 }},
		"delta history shorter than the run":    {adaptive, adaptiveState, func(st *engine.TrainState, _ *planner.ControllerState) { st.Deltas = st.Deltas[:50] }},
		"history names an unknown plan":         {adaptive, adaptiveState, func(_ *engine.TrainState, cs *planner.ControllerState) { cs.History[0].Plan = "NoSuchPlan" }},
		"history switches to an unknown plan": {adaptive, adaptiveState, func(_ *engine.TrainState, cs *planner.ControllerState) {
			cs.History[len(cs.History)-1].To = "NoSuchPlan"
		}},
		"history ends on another plan": {adaptive, adaptiveState, func(_ *engine.TrainState, cs *planner.ControllerState) { cs.History = cs.History[:1] }},
	} {
		_, err := adaptiveSystem().ResumeJob(c.q, tamper(t, c.state, c.edit), JobOptions{})
		if err == nil || !strings.Contains(err.Error(), "script or configuration changed since the checkpoint") {
			t.Errorf("%s: ResumeJob returned %v", name, err)
		}
	}
}

// TestFailedSwitchKeepsTheTrainer: when the successor plan cannot be stood
// up, Step returns the error and the job still answers Progress — the serving
// layer reads it on the way to failing the job.
func TestFailedSwitchKeepsTheTrainer(t *testing.T) {
	q := parseRun(t, adaptiveStmt)
	j, err := adaptiveSystem().OpenJob(q, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The same space under the wrong input format: every successor's eager
	// Transform fails on the first record.
	p, _, err := bindParams(q, adaptiveData())
	if err != nil {
		t.Fatal(err)
	}
	p.Format = data.FormatCSV
	j.ctl = planner.NewController(j.sim, j.store, p, j.dec, false, AdaptiveConfig{})
	for err == nil && !j.Done() {
		err = j.Step()
	}
	if err == nil {
		t.Fatal("the switch succeeded under the wrong input format")
	}
	if j.Iteration() != adaptiveSwitch || j.Done() {
		t.Fatalf("after the failed switch (%v): iteration %d, done %v", err, j.Iteration(), j.Done())
	}
}
