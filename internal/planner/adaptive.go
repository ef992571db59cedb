package planner

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strings"

	"ml4all/internal/cluster"
	"ml4all/internal/costmodel"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
)

// This file implements mid-flight re-optimization: the optimizer's
// speculative machinery reused at runtime, as the paper's conclusion
// suggests and as adaptive query processors do (cf. Delta's mixed
// cost-based re-costing in PAPERS.md — observed costs for the running plan,
// estimated costs for the alternatives).
//
// The Controller is a policy acting between two engine.Trainer Steps — the
// static run is the nil policy — whose whole memory is a ControllerState, so
// an adaptive run checkpoints, resumes and is served like any other. Every K
// iterations it re-fits the estimator's T(ε) = a/ε curve on the *observed*
// delta sequence of the running segment (estimator.MonotoneSequence +
// FitInverse — the exact functions speculation uses, now fed real-run data
// instead of sample data), re-costs the remaining work for the incumbent
// with the re-fitted curve and for every other plan of the eleven-plan space
// with its speculative estimate, and switches when an alternative's
// projected remaining cost — including its full switch overhead: job init,
// Stage and (eager) Transform, exactly what engine.Trainer.Switch charges
// the simulator — undercuts the incumbent's by the hysteresis margin.
// Weights and the iteration counter carry across the switch, so step-size
// schedules continue and the model keeps its progress.

// AdaptiveConfig tunes the mid-flight re-optimization controller.
type AdaptiveConfig struct {
	// Every is the re-optimization period: a check runs after every
	// Every-th iteration. 0 means 25.
	Every int
}

// The controller's guards are constants, each with the reason for its value:
// nothing in the repo needs two values of any of them.
const (
	// hysteresis is the relative margin an alternative's projected
	// remaining cost must undercut the incumbent's by before the controller
	// switches (guarding against estimate noise and plan oscillation).
	hysteresis = 0.2
	// maxSwitches caps how many times one run may switch plans.
	maxSwitches = 3
	// minPoints is the minimum number of monotone error observations the
	// running segment must have produced before a check may act.
	minPoints = 3
	// deviationFactor gates re-optimization on demonstrated mis-estimation:
	// the controller considers switching only when the re-fitted a exceeds
	// deviationFactor times the speculative a for the incumbent's algorithm
	// — while speculation is tracking reality, the up-front optimizer
	// decision stands. 4 sits above the natural sample-vs-full drift a sound
	// speculation shows (~2-3x) and below the blow-ups genuine
	// mis-estimation produces.
	deviationFactor = 4
)

// PlanCost is one candidate's projection inside a re-fit check: the curve
// coefficient the re-costing used (observed for the incumbent's algorithm,
// speculative — possibly ratcheted — for the others), the projected
// remaining iterations from the current error level, and the projected
// remaining cost (including switch overhead for alternatives).
type PlanCost struct {
	Plan      string
	A         float64
	Remaining float64
	Cost      cluster.Seconds
}

// RefitEvent is the structured record of one re-optimization check,
// persisted into the run ledger so past runs' planner decisions can be
// replayed and audited.
type RefitEvent struct {
	Iter    int             // global iteration the check ran after
	Clock   cluster.Seconds // sim clock at the check
	Plan    string          // incumbent plan at check time
	Points  int             // monotone observations available to the fit
	FittedA float64         // a of T(ε) = a/ε re-fitted on the segment's deltas (0: bailed before fitting)
	SpecA   float64         // speculation's a for the same algorithm; the gap is what a switch corrects
	Epsilon float64         // best observed delta at check time — the level a successor plan inherits
	// Remaining and Cost are the incumbent's own projection at the check
	// (populated once the check got far enough to compute them).
	Remaining float64
	Cost      cluster.Seconds
	// Costs lists the per-plan projections of every alternative the check
	// re-costed.
	Costs []PlanCost
	// Action is the decision taken: "budget-exhausted", "too-few-points",
	// "converging", "deviation-gate", "endgame", "no-alternative",
	// "hysteresis-keep" or "switch".
	Action string
	// Reason is the human-readable explanation, showing the re-fitted
	// estimate and the costs compared.
	Reason string
	// To and AltCost are the plan switched to and its projected remaining
	// cost, switch overhead included; To is empty unless the check switched.
	To      string
	AltCost cluster.Seconds
}

// History is the controller's record of a run, one RefitEvent per check
// (including the ones that kept the incumbent, with the reason; the
// budget-exhausted state is recorded once). It is the only record: the
// executed switches, the plan chain and the decision log ("iter <Iter>:
// <Reason>" per check that decided something) are views of it.
type History []RefitEvent

// Switches returns the checks that switched plans.
func (h History) Switches() History {
	var out History
	for _, ev := range h {
		if ev.To != "" {
			out = append(out, ev)
		}
	}
	return out
}

// ControllerState is everything the controller remembers between two Steps —
// what a checkpoint must carry for a resumed adaptive run to take the same
// decisions as one that was never stopped.
type ControllerState struct {
	// ObservedA ratchets the re-fitted curve coefficient per algorithm: an
	// algorithm whose observed curve was ever worse than its speculative
	// one is never trusted at the speculative estimate again. Disqualified
	// marks algorithms abandoned for demonstrated mis-estimation: their
	// speculative curve is known-wrong and their observed curve never
	// covered the target regime, so re-entering on either extrapolation
	// would repeat the very mistake the controller exists to correct. The
	// two are the one-sided memory that keeps re-optimization from
	// oscillating.
	ObservedA    map[gd.Algo]float64
	Disqualified map[gd.Algo]bool
	// SegStart is the iteration the running plan took over at: the re-fit
	// sees only the deltas observed since.
	SegStart int
	History  History
}

// Controller drives one adaptive run: Step in place of engine.Trainer.Step.
type Controller struct {
	ControllerState
	every int
	sim   *cluster.Sim
	dec   *Decision
	space []gd.Plan
	model *costmodel.Model
}

// NewController returns the controller for a run that starts on dec.Best on
// sim. fastMath is the kernel tier the run executes on: the re-costing prices
// remaining work at the rates the trainer is charged.
func NewController(sim *cluster.Sim, store *storage.Store, p gd.Params, dec *Decision, fastMath bool, cfg AdaptiveConfig) *Controller {
	c := &Controller{
		ControllerState: newControllerState(), every: cfg.Every,
		sim: sim, dec: dec, space: Space(p), model: costmodel.New(store, sim.Cfg),
	}
	if c.every <= 0 {
		c.every = 25
	}
	c.model.FastMath = fastMath
	return c
}

func newControllerState() ControllerState {
	return ControllerState{ObservedA: map[gd.Algo]float64{}, Disqualified: map[gd.Algo]bool{}}
}

// Plans lists the executed plan names in order; PlanName chains them, e.g.
// "MGD-lazy-shuffle→BGD".
func (c *Controller) Plans() []string {
	plans := []string{c.dec.Best.Plan.Name()}
	for _, sw := range c.History.Switches() {
		plans = append(plans, sw.To)
	}
	return plans
}

func (c *Controller) PlanName() string { return strings.Join(c.Plans(), "→") }

// Encode serializes the controller's state for engine.TrainState.Policy.
func (c *Controller) Encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&c.ControllerState)
	return buf.Bytes(), err
}

// Restore adopts a state produced by Encode for continuing tr. The bytes come
// from disk, so nothing in them is trusted: the check slices tr's deltas at
// SegStart, and the recorded plans end up in the model header and the ledger.
func (c *Controller) Restore(policy []byte, tr *engine.Trainer) error {
	st := newControllerState() // gob leaves a map absent from the stream as it finds it
	if err := gob.NewDecoder(bytes.NewReader(policy)).Decode(&st); err != nil {
		return fmt.Errorf("planner: decoding controller state: %w", err)
	}
	inSpace := func(name string) bool {
		return slices.ContainsFunc(c.space, func(p gd.Plan) bool { return p.Name() == name })
	}
	iter, last := tr.Iteration(), c.dec.Best.Plan.Name()
	ok := st.SegStart >= 0 && st.SegStart <= iter && len(tr.Deltas()) == iter
	for _, ev := range st.History {
		ok = ok && inSpace(ev.Plan) && (ev.To == "" || inSpace(ev.To))
		if ev.To != "" {
			last = ev.To
		}
	}
	if !ok || last != tr.Plan().Name() {
		return fmt.Errorf("planner: controller state (segment from iteration %d, %d checks ending on %s) does not fit the checkpoint (%d deltas at iteration %d of %s) or the plan space",
			st.SegStart, len(st.History), last, len(tr.Deltas()), iter, tr.Plan().Name())
	}
	c.ControllerState = st
	return nil
}

// Step executes one iteration of tr and, after every Every-th, the
// re-optimization check. It returns the trainer to continue with: tr itself,
// or on a switch its successor (tr.Switch). A failed step or switch returns
// tr with the error.
func (c *Controller) Step(tr *engine.Trainer) (*engine.Trainer, error) {
	if err := tr.Step(); err != nil || tr.Done() || tr.Iteration()%c.every != 0 {
		return tr, err
	}
	return c.check(tr)
}

// segmentCost prices rem iterations of a plan's steady-state loop. The
// remaining-iteration projection itself lives in
// estimator.RemainingIterations, shared with the observability layer's
// convergence-ETA computation.
func segmentCost(br costmodel.Breakdown, rem float64) cluster.Seconds {
	if math.IsInf(rem, 0) {
		return cluster.Seconds(math.Inf(1))
	}
	return cluster.Seconds(rem) * br.Iteration
}

// switchCost is the one-time overhead of standing a new plan up mid-run:
// the job init, Stage and (eager) Transform engine.Trainer.Switch charges.
func switchCost(br costmodel.Breakdown) cluster.Seconds {
	return br.JobInit + br.Stage + br.Transform
}

// check is the re-optimization check, run between two Steps of tr: it
// appends its RefitEvent to the history and keeps tr or switches.
func (c *Controller) check(tr *engine.Trainer) (*engine.Trainer, error) {
	incumbent := *tr.Plan()
	globalIter := tr.Iteration()
	// ev accumulates the structured record of this check; every exit path
	// below stamps an Action and records it.
	ev := RefitEvent{Iter: globalIter, Clock: c.sim.Now(), Plan: incumbent.Name()}
	record := func(action, reason string) (*engine.Trainer, error) {
		ev.Action, ev.Reason = action, reason
		c.History = append(c.History, ev)
		return tr, nil
	}
	if len(c.History.Switches()) >= maxSwitches {
		// The switch budget is spent: further re-fits could change nothing,
		// so ride the incumbent out (recorded once).
		if c.History[len(c.History)-1].Action == "budget-exhausted" {
			return tr, nil
		}
		return record("budget-exhausted", fmt.Sprintf("switch budget (%d) exhausted — riding out %s",
			maxSwitches, incumbent.Name()))
	}

	seq := estimator.MonotoneSequence(tr.Deltas()[c.SegStart:])
	ev.Points = len(seq)
	if len(seq) < minPoints {
		return record("too-few-points", fmt.Sprintf("%d monotone points, too few to refit", len(seq)))
	}
	epsNow := seq[len(seq)-1].Err
	ev.Epsilon = epsNow
	if epsNow <= incumbent.Tolerance {
		return record("converging", "best observed delta at or below tolerance")
	}
	// Append the current position (iterations into the segment, epsNow)
	// before fitting: the monotone sequence records only improvements, so a
	// stalled plan would otherwise keep its optimistic early fit forever. The
	// appended point drags the fitted a up exactly when progress has stopped
	// — the signal the whole controller exists to catch.
	obs := append(append([]estimator.Point(nil), seq...), estimator.Point{Iter: globalIter - c.SegStart, Err: epsNow})
	aObs, ferr := estimator.FitInverse(obs)
	if ferr != nil {
		aObs = math.Inf(1)
	}
	specA := math.Inf(1)
	if est, ok := c.dec.Estimates[incumbent.Algorithm]; ok {
		specA = est.A
	}
	if !math.IsInf(aObs, 0) && aObs > c.ObservedA[incumbent.Algorithm] {
		c.ObservedA[incumbent.Algorithm] = aObs
	}
	ev.FittedA = aObs
	ev.SpecA = specA

	// Deviation gate: while the observed curve tracks the speculative one,
	// the up-front decision stands — no switch chatter.
	if !math.IsInf(specA, 0) && aObs <= deviationFactor*specA {
		return record("deviation-gate", fmt.Sprintf(
			"refit a=%.4g within %dx of spec a=%.4g — speculation on track, keep %s",
			aObs, deviationFactor, specA, incumbent.Name()))
	}

	brInc := c.model.Breakdown(incumbent)
	remInc := estimator.RemainingIterations(aObs, incumbent.Tolerance, epsNow)
	costInc := segmentCost(brInc, remInc)
	ev.Remaining = remInc
	ev.Cost = costInc

	// Endgame guard: when the incumbent is projected to finish within one
	// check period, a switch could never be re-evaluated before the
	// incumbent would have converged anyway — ride it out.
	if remInc <= float64(c.every) {
		return record("endgame", fmt.Sprintf("%s projected to finish in %.0f iters — ride it out",
			incumbent.Name(), remInc))
	}

	// Re-cost the rest of the space: observed curve for the incumbent's
	// algorithm, speculative curves for the others (the mixed re-costing).
	// All candidates inherit the current error level, so their
	// remaining-iteration projections skip the curve head the incumbent
	// already descended.
	bestCost := cluster.Seconds(math.Inf(1))
	var best *gd.Plan
	for _, cand := range c.space {
		if cand.Name() == incumbent.Name() {
			continue
		}
		a := aObs
		if cand.Algorithm != incumbent.Algorithm {
			if c.Disqualified[cand.Algorithm] {
				continue
			}
			est, ok := c.dec.Estimates[cand.Algorithm]
			if !ok {
				continue // no estimate: cannot re-cost
			}
			a = est.A
			// Trust past observation over the speculation whenever an
			// earlier segment already ran this algorithm and refit a worse
			// curve.
			if ratchet, seen := c.ObservedA[cand.Algorithm]; seen && ratchet > a {
				a = ratchet
			}
		}
		rem := estimator.RemainingIterations(a, cand.Tolerance, epsNow)
		// A candidate whose projection does not fit the remaining iteration
		// budget cannot reach the tolerance at all — switching to it would
		// trade a slow plan for a hopeless one.
		if budget := float64(cand.MaxIter - globalIter); cand.MaxIter > 0 && rem > budget {
			continue
		}
		br := c.model.Breakdown(cand)
		cost := switchCost(br) + segmentCost(br, rem)
		ev.Costs = append(ev.Costs, PlanCost{Plan: cand.Name(), A: a, Remaining: rem, Cost: cost})
		if cost < bestCost {
			bestCost, best = cost, &cand
		}
	}
	if best == nil {
		return record("no-alternative", "no alternative can be re-costed")
	}

	line := fmt.Sprintf(
		"refit a=%.4g (spec a=%.4g), eps=%.4g; %s remaining %.4gs; best alt %s remaining %.4gs incl switch",
		aObs, specA, epsNow, incumbent.Name(), float64(costInc), best.Name(), float64(bestCost))
	if !(float64(bestCost) < float64(costInc)*(1-hysteresis)) {
		return record("hysteresis-keep", line+" -> keep")
	}

	ev.To, ev.AltCost = best.Name(), bestCost
	record("switch", line+" -> switch")
	if best.Algorithm != incumbent.Algorithm {
		c.Disqualified[incumbent.Algorithm] = true
	}
	c.SegStart = globalIter
	succ, err := tr.Switch(best)
	if err != nil {
		return tr, err
	}
	return succ, nil
}
