package planner

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/obs"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

func adaptiveStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	ds, err := synth.Generate(synth.Spec{
		Name: "adaptive-test", Task: data.TaskLogisticRegression,
		N: n, D: 40, Density: 0.6, Noise: 0.6, Margin: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// adaptiveRun is one adaptive run's outcome: the result over all executed
// plans (Time is training only, like engine.Run), the decision it started
// from and the controller's history.
type adaptiveRun struct {
	Result   *engine.Result
	Decision *Decision
	Refits   History
}

// runAdaptive optimizes, then trains on the chosen plan with the controller
// stepping it: Choose → NewController → NewTrainer → Step until Done.
func runAdaptive(sim *cluster.Sim, store *storage.Store, p gd.Params, opts Options, eopts engine.Options, cfg AdaptiveConfig) (*adaptiveRun, error) {
	dec, err := Choose(sim, store, p, opts)
	if err != nil {
		return nil, err
	}
	ctl := NewController(sim, store, p, dec, eopts.FastMath, cfg)
	plan := dec.Best.Plan
	tr, err := engine.NewTrainer(sim, store, &plan, eopts)
	if err != nil {
		return nil, err
	}
	for !tr.Done() {
		if tr, err = ctl.Step(tr); err != nil {
			return nil, err
		}
	}
	res := tr.Finish()
	res.PlanName = ctl.PlanName()
	return &adaptiveRun{Result: res, Decision: dec, Refits: ctl.History}, nil
}

// TestAdaptiveNoChecksMatchesStatic pins the "adaptation disabled ⇒ the
// refactor is invisible" criterion at the controller level: with the check
// period beyond MaxIter the controller never fires, and the run must be
// bit-identical to Choose followed by a plain engine.Run of the chosen plan.
func TestAdaptiveNoChecksMatchesStatic(t *testing.T) {
	st := adaptiveStore(t, 3000)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Lambda: 0.01, Tolerance: 1e-3, MaxIter: 400}
	est := estimator.Config{SampleSize: 500, SpecTolerance: 0.1, TimeBudget: 5, Seed: 1}

	for _, workers := range []int{1, 2, 8} {
		sim := cluster.New(cluster.Default())
		ar, err := runAdaptive(sim, st, p, Options{Estimator: est},
			engine.Options{Seed: 3, Workers: workers}, AdaptiveConfig{Every: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(ar.Refits) != 0 {
			t.Fatalf("workers=%d: controller fired (%d checks, %d switches) with Every > MaxIter",
				workers, len(ar.Refits), len(ar.Refits.Switches()))
		}

		ref := cluster.New(cluster.Default())
		dec, err := Choose(ref, st, p, Options{Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		plan := dec.Best.Plan
		res, err := engine.Run(ref, st, &plan, engine.Options{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ar.Result.PlanName != plan.Name() {
			t.Fatalf("workers=%d: adaptive ran %s, static chose %s", workers, ar.Result.PlanName, plan.Name())
		}
		if !ar.Result.Weights.Equal(res.Weights, 0) {
			t.Fatalf("workers=%d: weights differ from static run", workers)
		}
		if ar.Result.Iterations != res.Iterations || ar.Result.FinalDelta != res.FinalDelta {
			t.Fatalf("workers=%d: iterations/delta differ: %d/%g vs %d/%g", workers,
				ar.Result.Iterations, ar.Result.FinalDelta, res.Iterations, res.FinalDelta)
		}
		if len(ar.Result.Deltas) != len(res.Deltas) {
			t.Fatalf("workers=%d: delta history %d vs %d", workers, len(ar.Result.Deltas), len(res.Deltas))
		}
		for i := range res.Deltas {
			if ar.Result.Deltas[i] != res.Deltas[i] {
				t.Fatalf("workers=%d: delta[%d] %g != %g", workers, i, ar.Result.Deltas[i], res.Deltas[i])
			}
		}
		if ar.Result.Time != res.Time {
			t.Fatalf("workers=%d: training time %v != %v", workers, ar.Result.Time, res.Time)
		}
	}
}

// TestAdaptiveRescuesMisestimatedPlan is the mis-estimation scenario at test
// scale: speculation on a 1000-point sample makes batch-1000 MGD look
// near-deterministic, the optimizer commits to it, and on the full noisy
// dataset the plan stalls above the tolerance. The controller must detect
// the deviation from the re-fitted curve, switch, and converge — where the
// statically-chosen plan misses tolerance entirely.
func TestAdaptiveRescuesMisestimatedPlan(t *testing.T) {
	st := adaptiveStore(t, 19531)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Lambda: 0.01, Tolerance: 2e-4, MaxIter: 4000}
	est := estimator.Config{SampleSize: 1000, SpecTolerance: 0.1, TimeBudget: 3, Seed: 1}

	sim := cluster.New(cluster.Default())
	ar, err := runAdaptive(sim, st, p, Options{Estimator: est}, engine.Options{Seed: 1}, AdaptiveConfig{Every: 50})
	if err != nil {
		t.Fatal(err)
	}

	if ar.Decision.Best.Plan.Algorithm == gd.BGD {
		t.Fatalf("scenario lost its skew: optimizer chose %s up front", ar.Decision.Best.Plan.Name())
	}
	if len(ar.Refits.Switches()) == 0 {
		t.Fatal("controller never switched despite mis-estimation")
	}
	sw := ar.Refits.Switches()[0]
	if sw.FittedA <= sw.SpecA {
		t.Fatalf("switch not driven by a worse re-fit: a=%g vs spec %g", sw.FittedA, sw.SpecA)
	}
	if !ar.Result.Converged {
		t.Fatalf("adaptive run missed tolerance: final delta %g after %d iters", ar.Result.FinalDelta, ar.Result.Iterations)
	}
	if len(ar.Result.Deltas) != ar.Result.Iterations {
		t.Fatalf("merged delta history %d != %d iterations", len(ar.Result.Deltas), ar.Result.Iterations)
	}
	if !strings.Contains(sw.Reason, "refit") {
		t.Fatal("decision log missing the re-fitted estimate")
	}
	if !strings.Contains(ar.Result.PlanName, "→") {
		t.Fatalf("merged plan name %q does not chain segments", ar.Result.PlanName)
	}

	// The statically-chosen plan, run uninterrupted, misses the tolerance —
	// the run adaptation rescued.
	chosen := ar.Decision.Best.Plan
	static, err := engine.Run(cluster.New(cluster.Default()), st, &chosen, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if static.Converged {
		t.Fatalf("scenario lost its sting: static %s converged in %d iters", chosen.Name(), static.Iterations)
	}
}

// TestAdaptiveRefitTelemetry re-runs the rescue scenario with the observer
// attached and pins the PR-10 telemetry: every check leaves a structured
// RefitEvent the decision log is a view of, the switch is recorded with its
// costed alternatives, the iteration ring observes every iteration, and the
// run's deltas fold into the observed monotone T(ε) curve across the switch.
// (The ledger record a served adaptive job condenses this into is pinned in
// internal/serve.)
func TestAdaptiveRefitTelemetry(t *testing.T) {
	st := adaptiveStore(t, 19531)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Lambda: 0.01, Tolerance: 2e-4, MaxIter: 4000}
	est := estimator.Config{SampleSize: 1000, SpecTolerance: 0.1, TimeBudget: 3, Seed: 1}

	ring := &countingRing{Ring: obs.NewRing(0)}
	sim := cluster.New(cluster.Default())
	ar, err := runAdaptive(sim, st, p, Options{Estimator: est},
		engine.Options{Seed: 1, Observer: ring}, AdaptiveConfig{Every: 50})
	if err != nil {
		t.Fatal(err)
	}

	// --- structured refits mirror the checks ---
	if len(ar.Refits) == 0 {
		t.Fatal("no RefitEvents recorded")
	}
	valid := map[string]bool{
		"budget-exhausted": true, "too-few-points": true, "converging": true,
		"deviation-gate": true, "endgame": true, "no-alternative": true,
		"hysteresis-keep": true, "switch": true,
	}
	for i, ev := range ar.Refits {
		if !valid[ev.Action] {
			t.Fatalf("refit %d has unknown action %q", i, ev.Action)
		}
		if ev.Iter <= 0 || ev.Plan == "" || ev.Reason == "" {
			t.Fatalf("refit %d incomplete: %+v", i, ev)
		}
		if (ev.Action == "switch") != (ev.To != "") {
			t.Fatalf("refit %d: action %q with successor %q", i, ev.Action, ev.To)
		}
	}
	switches := ar.Refits.Switches()
	if len(switches) == 0 {
		t.Fatal("scenario lost its sting: no switch")
	}
	sw := switches[0]
	if len(sw.Costs) == 0 {
		t.Fatal("switch refit carries no per-plan cost table")
	}
	if !strings.Contains(sw.Reason, "switch") || sw.AltCost <= 0 || sw.AltCost >= sw.Cost {
		t.Fatalf("switch refit %+v", sw)
	}
	if want := sw.Plan + "→" + sw.To; !strings.HasPrefix(ar.Result.PlanName, want) {
		t.Fatalf("plan chain %q does not start %q", ar.Result.PlanName, want)
	}

	// --- the ring observed the whole run; its deltas fold into the curve ---
	if ring.iters != len(ar.Result.Deltas) {
		t.Fatalf("ring observed %d iterations, run executed %d", ring.iters, len(ar.Result.Deltas))
	}
	curve := obs.FoldCurve(nil, ar.Result.Deltas, 0)
	if len(curve) == 0 {
		t.Fatal("observed T(ε) curve is empty")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Err >= curve[i-1].Err {
			t.Fatalf("curve not strictly decreasing at %d: %g then %g", i, curve[i-1].Err, curve[i].Err)
		}
	}
}

// countingRing is an obs.Ring that also counts the iterations it observes.
type countingRing struct {
	*obs.Ring
	iters int
}

func (r *countingRing) ObserveIter(ev engine.IterEvent) { r.iters++; r.Ring.ObserveIter(ev) }

// FuzzControllerRestore feeds Controller.Restore arbitrary bytes, as a
// checkpoint read back from disk may hold: it must never panic; a state it
// accepts must come back unchanged through Encode and Restore; and the
// controller must then step the run without panicking.
func FuzzControllerRestore(f *testing.F) {
	st := adaptiveStore(f, 2000)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Lambda: 0.01, Tolerance: 1e-9, MaxIter: 400}
	dec, err := Choose(cluster.New(cluster.Default()), st, p, Options{Estimator: estimator.Config{SampleSize: 300, SpecTolerance: 0.1, TimeBudget: 5, Seed: 1}})
	if err != nil {
		f.Fatal(err)
	}
	cfg := AdaptiveConfig{Every: 10}

	// A run 60 iterations in, checkpointed with its controller's state; every
	// input is restored onto a fresh resume of it.
	sim := cluster.New(cluster.Default())
	plan := dec.Best.Plan
	tr, err := engine.NewTrainer(sim, st, &plan, engine.Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	ctl := NewController(sim, st, p, dec, false, cfg)
	for tr.Iteration() < 60 {
		if tr, err = ctl.Step(tr); err != nil {
			f.Fatal(err)
		}
	}
	if tr.Done() {
		f.Fatal("the fixture run finished before its checkpoint")
	}
	ckpt, err := tr.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	resume := func(t testing.TB) (*engine.Trainer, *Controller) {
		sim := cluster.New(cluster.Default())
		plan := *tr.Plan()
		rt, err := engine.Resume(sim, st, &plan, engine.Options{}, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		return rt, NewController(sim, st, p, dec, false, cfg)
	}

	seed := func(s ControllerState) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	own, err := ctl.Encode()
	if err != nil {
		f.Fatal(err)
	}
	if rt, c := resume(f); c.Restore(own, rt) != nil {
		f.Fatal("the run's own controller state does not restore")
	}
	f.Add(own)
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add(seed(ControllerState{SegStart: 61}))
	f.Add(seed(ControllerState{SegStart: -1}))
	f.Add(seed(ControllerState{SegStart: 60, ObservedA: map[gd.Algo]float64{gd.BGD: math.NaN(), gd.SGD: math.Inf(1), gd.MGD: -1}}))
	f.Add(seed(ControllerState{Disqualified: map[gd.Algo]bool{gd.BGD: true, gd.SGD: true, gd.MGD: true}, SegStart: 20}))
	f.Add(seed(ControllerState{History: History{{Plan: plan.Name(), To: "no-such-plan"}}}))
	switched := History{{Iter: 10, Plan: plan.Name(), To: plan.Name(), Action: "switch"}, {Iter: 20, Plan: plan.Name(), To: plan.Name(), Action: "switch"}, {Iter: 30, Plan: plan.Name(), To: plan.Name(), Action: "switch"}}
	f.Add(seed(ControllerState{History: switched, SegStart: 30}))

	f.Fuzz(func(t *testing.T, policy []byte) {
		rt, c := resume(t)
		if c.Restore(policy, rt) != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("accepted state does not encode: %v", err)
		}
		_, again := resume(t)
		if err := again.Restore(enc, rt); err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		// %#v prints maps in key order and NaN as NaN, so equal text is an
		// unchanged state.
		if a, b := fmt.Sprintf("%#v", c.ControllerState), fmt.Sprintf("%#v", again.ControllerState); a != b {
			t.Fatalf("state changed through Encode and Restore:\n%s\n%s", a, b)
		}
		for i := 0; i < 30 && !rt.Done(); i++ {
			if rt, err = c.Step(rt); err != nil {
				return
			}
		}
	})
}
