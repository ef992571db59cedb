package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"ml4all/internal/cluster"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/sampling"
	"ml4all/internal/storage"
)

// TrainState is the serializable snapshot of a Trainer between two Steps:
// everything a fresh process needs to continue the run bit-identically.
// Model state (weights, operator context variables), loop state (iteration
// counter, delta history, termination flags), physical-execution state (the
// sampling RNG position as a draw count, the per-partition op-cost cache, the
// shuffled-partition sampler queue) and the simulator snapshot (clock,
// accounting, jitter position, cache residency) are all captured by value.
// The data units themselves are NOT serialized — they are the store's arena,
// or reproduced on Resume by re-running the (deterministic) Transform UDF
// over the same raw dataset, which is why a resumed run needs the same store
// the checkpointed run used. Neither is the previous iterate: between Steps
// it equals Weights (see Trainer.prev). A checkpoint written when Prev, the
// lazy-transform memo or the per-iteration weights trace still were fields
// resumes to the same run — gob drops unknown fields.
type TrainState struct {
	PlanName string
	Seed     int64

	// Loop position and model state.
	Iter       int
	StepSize   float64
	BatchSize  int
	Weights    linalg.Vector
	Vars       map[string]any
	Deltas     []float64
	FinalDelta float64
	Converged  bool
	Budgeted   bool
	Diverged   bool
	Done       bool

	// Physical-execution state.
	RNGDraws  uint64 // sampling-stream position: draws consumed since seeding
	OpsByPart []float64
	Sampler   []int // shuffled-partition queue; nil for stateless samplers

	// Simulator state.
	StartClock cluster.Seconds // sim clock at trainer start (Time baseline)
	Sim        cluster.SimState

	// Policy is what the driver between Steps wants restored with the trainer
	// — the adaptive controller's encoded state; empty for a static run. The
	// engine neither writes nor reads it: it is here to share the frame, the
	// checksum and the durable write of the state it belongs to.
	Policy []byte
}

func init() {
	// Context.Vars is a map[string]any; register the concrete types the
	// stock operators store there so gob can round-trip them. Custom UDFs
	// storing other types must gob.Register them before Encode.
	gob.Register(linalg.Vector{})
	gob.Register(int(0))
	gob.Register(float64(0))
	gob.Register(string(""))
	gob.Register(bool(false))
}

// Encode serializes the state with encoding/gob.
func (st *TrainState) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("engine: encoding train state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTrainState deserializes a state produced by Encode.
func DecodeTrainState(b []byte) (*TrainState, error) {
	st := &TrainState{}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(st); err != nil {
		return nil, fmt.Errorf("engine: decoding train state: %w", err)
	}
	return st, nil
}

// Checkpoint captures the trainer's full state between Steps. Everything the
// stock operators touch is deep-copied, so the trainer may keep running
// after the snapshot — the resume-equivalence tests rely on checkpointing a
// run and letting the original finish undisturbed. Custom UDF state in
// Context.Vars is covered by the same guarantee only when stored as
// linalg.Vector or immutable values (numbers, strings, bools); other mutable
// types are captured by reference and must not be mutated in place after a
// checkpoint is taken.
func (t *Trainer) Checkpoint() (*TrainState, error) {
	ctx := t.ex.ctx
	st := &TrainState{
		PlanName:   t.plan.Name(),
		Seed:       t.ex.seed,
		Iter:       ctx.Iter,
		StepSize:   ctx.Step,
		BatchSize:  ctx.BatchSize,
		Weights:    ctx.Weights.Clone(),
		Vars:       cloneVars(ctx.Vars),
		Deltas:     append([]float64(nil), t.res.Deltas...),
		FinalDelta: t.res.FinalDelta,
		Converged:  t.res.Converged,
		Budgeted:   t.res.Budgeted,
		Diverged:   t.res.Diverged,
		Done:       t.done,
		RNGDraws:   t.rngDraws(),
		OpsByPart:  append([]float64(nil), t.ex.opsByPart...),
		StartClock: t.start,
		Sim:        t.sim.Snapshot(),
	}
	if sp, ok := t.ex.sampler.(sampling.Stateful); ok {
		st.Sampler = sp.StateSnapshot()
	}
	return st, nil
}

// Resume reconstructs a Trainer from a checkpoint on a fresh simulator built
// from the same cluster configuration, continuing the run bit-identically:
// the simulator is rewound to the snapshot, the RNG stream is fast-forwarded
// to its recorded position, and a custom Transformer's arena is reproduced by
// re-running it over the store's raw data (charging nothing — the restored
// clock already includes those costs). The plan must be the one the
// checkpoint was taken from and the store must hold the same dataset and
// layout; Options.Seed is ignored in favor of the checkpoint's.
func Resume(sim *cluster.Sim, store *storage.Store, plan *gd.Plan, opts Options, st *TrainState) (*Trainer, error) {
	if plan.Name() != st.PlanName {
		return nil, fmt.Errorf("engine: resuming %s checkpoint with plan %s", st.PlanName, plan.Name())
	}
	if len(st.Weights) != store.Dataset.NumFeatures {
		return nil, fmt.Errorf("engine: checkpoint weights have %d features, store dataset has %d",
			len(st.Weights), store.Dataset.NumFeatures)
	}
	if err := sim.Restore(st.Sim); err != nil {
		return nil, err
	}
	o := opts
	o.Seed = st.Seed
	t, err := newTrainerShell(sim, store, plan, o)
	if err != nil {
		return nil, err
	}
	t.start = st.StartClock

	ctx := t.ex.ctx
	ctx.Iter = st.Iter
	ctx.Step = st.StepSize
	ctx.BatchSize = st.BatchSize
	ctx.Weights = st.Weights.Clone()
	ctx.Vars = cloneVars(st.Vars)
	if ctx.Vars == nil {
		ctx.Vars = map[string]any{}
	}

	if err := t.ex.materialize(); err != nil {
		return nil, err
	}
	t.ex.opsByPart = append([]float64(nil), st.OpsByPart...)

	if err := t.initSampler(); err != nil {
		return nil, err
	}
	if t.src != nil {
		t.src.Skip(st.RNGDraws)
	}
	if sp, ok := t.ex.sampler.(sampling.Stateful); ok {
		sp.StateRestore(st.Sampler)
	}

	t.res = &Result{
		PlanName:   plan.Name(),
		Deltas:     append([]float64(nil), st.Deltas...),
		FinalDelta: st.FinalDelta,
		Converged:  st.Converged,
		Budgeted:   st.Budgeted,
		Diverged:   st.Diverged,
	}
	t.done = st.Done
	return t, nil
}

// cloneVars copies a context-variable map, cloning vector values so the copy
// shares no memory with the live context. Non-vector values are copied by
// assignment: immutable for everything the stock operators store; custom
// mutable types ride along by reference (see the Checkpoint contract).
func cloneVars(in map[string]any) map[string]any {
	if in == nil {
		return nil
	}
	out := make(map[string]any, len(in))
	for k, v := range in {
		if vec, ok := v.(linalg.Vector); ok {
			out[k] = vec.Clone()
		} else {
			out[k] = v
		}
	}
	return out
}
