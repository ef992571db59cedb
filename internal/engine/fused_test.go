package engine_test

// The fused driver step's equivalence guarantee. For the stock pairing
// (gd.GradientUpdater × L1/L2 converger) the trainer makes one
// gd.FusedUpdater.UpdateConverge call per iteration — update, convergence
// delta, finite check and the accumulator's zeroing in one walk over the
// model — and a single-span compute pass accumulates straight into the
// iteration accumulator. Both must be invisible: the reference is the same
// plan with the stock operators hidden behind test-local types, which is
// what a custom Updater/Converger UDF looks like to the engine and keeps it
// on the operator-by-operator path.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/planner"
	"ml4all/internal/step"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// opUpdater and opConverger expose ONLY the operator method sets, so the
// engine's FusedUpdater / NormConverger assertions fail.
type opUpdater struct{ gd.Updater }
type opConverger struct{ gd.Converger }

// operatorPlan is plan on the operator-by-operator path.
func operatorPlan(plan gd.Plan) gd.Plan {
	plan.Updater = opUpdater{plan.Updater}
	plan.Converger = opConverger{plan.Converger}
	return plan
}

// countingFused counts which of the two Updater entry points the engine used.
type countingFused struct {
	gd.GradientUpdater
	fused, plain *int
}

func (c countingFused) Update(acc linalg.Vector, ctx *gd.Context) (linalg.Vector, error) {
	*c.plain++
	return c.GradientUpdater.Update(acc, ctx)
}

func (c countingFused) UpdateConverge(acc linalg.Vector, ctx *gd.Context, norm gd.DeltaNorm) (linalg.Vector, float64, bool, error) {
	*c.fused++
	return c.GradientUpdater.UpdateConverge(acc, ctx, norm)
}

func fusedStore(t *testing.T, task data.TaskKind, dense bool) *storage.Store {
	t.Helper()
	return fusedStoreD(t, task, dense, 24)
}

// fusedStoreD is fusedStore at model width d. From d = 1 000 on the set is
// shaped like a wide sparse one — 128 rows of ten non-zeros — which keeps
// the compute pass small; partitions scale by d/24 to keep their count.
func fusedStoreD(t *testing.T, task data.TaskKind, dense bool, d int) *storage.Store {
	t.Helper()
	spec := synth.Spec{Name: "fused-" + task.String(), Task: task, N: 900, D: d, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 29}
	if d >= 1000 {
		spec.N, spec.Density = 128, 10/float64(d)
	}
	if dense {
		spec.Density = 1
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Mat.IsDense() != dense {
		t.Fatalf("%v dense=%v: generator produced IsDense=%v", task, dense, ds.Mat.IsDense())
	}
	// 8 KB partitions: BGD and the Bernoulli plans run multi-span passes (the
	// ordered tree), the 64-row batches and SGD single-span ones (direct).
	st, err := storage.Build(ds, storage.Layout{PartitionBytes: (8 << 10) * int64(max(1, d/24)), PageBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sameVectorBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBits is checkSame on bit patterns: a NaN delta of a diverged run must
// match too, and a zero of the other sign must not.
func sameBits(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	switch {
	case !sameVectorBits(got.Weights, want.Weights):
		t.Fatalf("%s: weights differ", label)
	case got.Iterations != want.Iterations:
		t.Fatalf("%s: iterations %d != %d", label, got.Iterations, want.Iterations)
	case !sameVectorBits(got.Deltas, want.Deltas):
		t.Fatalf("%s: deltas differ:\n got %v\nwant %v", label, got.Deltas, want.Deltas)
	case math.Float64bits(got.FinalDelta) != math.Float64bits(want.FinalDelta):
		t.Fatalf("%s: final delta %g != %g", label, got.FinalDelta, want.FinalDelta)
	case got.Time != want.Time:
		t.Fatalf("%s: sim time %v != %v", label, got.Time, want.Time)
	case got.Converged != want.Converged || got.Budgeted != want.Budgeted || got.Diverged != want.Diverged:
		t.Fatalf("%s: termination flags differ", label)
	case !reflect.DeepEqual(got.Acct, want.Acct):
		t.Fatalf("%s: accounting differs:\n got %+v\nwant %+v", label, got.Acct, want.Acct)
	}
}

func runPlan(t *testing.T, st *storage.Store, plan gd.Plan, opts engine.Options) *engine.Result {
	t.Helper()
	res, err := engine.Run(cluster.New(cluster.Default()), st, &plan, opts) // jitter on: the harder case
	if err != nil {
		t.Fatalf("%s: %v", plan.Name(), err)
	}
	return res
}

// The fused step runs linalg.StepL1 / StepL2Sq, whose AVX2 twins take the
// model in groups of four components and leave the rest to the Go loop: so
// the comparison runs with the SIMD backend off and on, and with it on also
// at a width that is not a multiple of 4 (27) and at a wide one (1 003).
// With the backend off the step is one Go loop at any width.
func TestFusedStepMatchesOperatorsBitwise(t *testing.T) {
	defer linalg.SetSIMD(linalg.SetSIMD(false))
	checkFusedMatchesOperators(t, "simd=false/d=24", 24)
	if !linalg.SIMDAvailable() {
		t.Skipf("no SIMD backend (features: %s): Go loops only", linalg.CPUFeatures())
	}
	linalg.SetSIMD(true)
	for _, d := range []int{24, 27, 1003} {
		checkFusedMatchesOperators(t, fmt.Sprintf("simd=true/d=%d", d), d)
	}
}

// checkFusedMatchesOperators runs every plan of the space on the fused and
// the operator path at width d. Width 24 covers the worker count's effect on
// the compute pass and both layouts; the other widths are there for the
// step kernels' tails and a wide model, run Workers 1, and from d = 1 000
// on the sparse layout only.
func checkFusedMatchesOperators(t *testing.T, prefix string, d int) {
	workerCounts, layouts := []int{1, 2}, []bool{true, false}
	if d != 24 {
		workerCounts = workerCounts[:1]
	}
	if d >= 1000 {
		layouts = layouts[1:]
	}
	tasks := []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression}
	convergers := []gd.Converger{gd.L1Converger{}, gd.L2Converger{}}
	for _, task := range tasks {
		for _, dense := range layouts {
			st := fusedStoreD(t, task, dense, d)
			for _, conv := range convergers {
				for _, lambda := range []float64{0, 1e-4} {
					p := gd.Params{
						Task: task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 24,
						BatchSize: 64, Lambda: lambda, Converger: conv,
					}
					for _, plan := range planner.Space(p) {
						for _, workers := range workerCounts {
							label := fmt.Sprintf("%s/%v/dense=%v/%T/lambda=%g/%s/workers=%d", prefix, task, dense, conv, lambda, plan.Name(), workers)
							opts := engine.Options{Seed: 13, Workers: workers}
							want := runPlan(t, st, operatorPlan(plan), opts)
							if want.Iterations < 2 {
								t.Fatalf("%s: degenerate baseline: %d iterations", label, want.Iterations)
							}
							sameBits(t, label, want, runPlan(t, st, plan, opts))
						}
					}
				}
			}
		}
	}
}

// The comparison above means nothing unless the stock pairing really takes
// the fused entry point and the wrapped one really does not.
func TestFusedStepIsTaken(t *testing.T) {
	st := fusedStore(t, data.TaskLogisticRegression, true)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 10, BatchSize: 64}
	for _, wrapConverger := range []bool{false, true} {
		var fused, plain int
		plan := gd.NewMGD(p, gd.Eager, gd.ShuffledPartition)
		plan.Updater = countingFused{fused: &fused, plain: &plain}
		if wrapConverger {
			plan.Converger = opConverger{plan.Converger}
		}
		res := runPlan(t, st, plan, engine.Options{Seed: 1, Workers: 1})
		wantFused, wantPlain := res.Iterations, 0
		if wrapConverger {
			wantFused, wantPlain = 0, res.Iterations
		}
		if fused != wantFused || plain != wantPlain {
			t.Fatalf("custom converger=%v: %d fused + %d plain updates over %d iterations", wrapConverger, fused, plain, res.Iterations)
		}
	}
}

// A run that blows up must say so on the same iteration, with the same
// deltas on the way there, on both paths — the fused loop decides finiteness
// from its delta and only looks at the weights when that is not finite.
func TestFusedStepDivergesOnTheSameIteration(t *testing.T) {
	for _, dense := range []bool{true, false} {
		st := fusedStore(t, data.TaskLinearRegression, dense)
		for _, conv := range []gd.Converger{gd.L1Converger{}, gd.L2Converger{}} {
			// Step 1e150: the weights overflow within a few iterations, the
			// squared L2 delta one iteration before them.
			p := gd.Params{
				Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 200,
				BatchSize: 64, Lambda: 1e-4, Converger: conv, Step: step.Constant{Value: 1e150},
			}
			for _, plan := range planner.Space(p) {
				label := fmt.Sprintf("dense=%v/%T/%s", dense, conv, plan.Name())
				opts := engine.Options{Seed: 3, Workers: 1}
				want := runPlan(t, st, operatorPlan(plan), opts)
				if !want.Diverged || want.Iterations == p.MaxIter {
					t.Fatalf("%s: baseline did not diverge (%d iterations)", label, want.Iterations)
				}
				sameBits(t, label, want, runPlan(t, st, plan, opts))
			}
		}
	}
}

// parentTrainState is engine.TrainState as the commit before the fused step
// wrote it: the same fields plus Prev, the copy of the previous iterate the
// trainer used to carry. (Blobs with the fields deleted after that are real
// ones, see TestResumeFromParentWrittenCheckpoint.)
type parentTrainState struct {
	PlanName string
	Seed     int64

	Iter       int
	StepSize   float64
	BatchSize  int
	Weights    linalg.Vector
	Prev       linalg.Vector
	Vars       map[string]any
	Deltas     []float64
	FinalDelta float64
	Converged  bool
	Budgeted   bool
	Diverged   bool
	Done       bool

	RNGDraws  uint64
	OpsByPart []float64
	Sampler   []int

	StartClock cluster.Seconds
	Sim        cluster.SimState
}

// encodeAsParent serializes st the way that commit did.
func encodeAsParent(t *testing.T, st *engine.TrainState) []byte {
	t.Helper()
	return encodeGob(t, asParent(st))
}

// asParent lays st out as that commit's TrainState. The mirror's fields drive
// the copy: what TrainState gained since (Policy) is simply absent, as it was
// from the parent's; what it dropped since is refilled the way the parent
// kept it (FinalDelta, the last delta) or left empty (OpsByPart, the op sums
// a resumed run now recomputes).
func asParent(st *engine.TrainState) parentTrainState {
	var old parentTrainState
	src, dst := reflect.ValueOf(*st), reflect.ValueOf(&old).Elem()
	for i := 0; i < dst.NumField(); i++ {
		if f := src.FieldByName(dst.Type().Field(i).Name); f.IsValid() {
			dst.Field(i).Set(f)
		}
	}
	old.Prev = st.Weights.Clone()
	if n := len(st.Deltas); n > 0 {
		old.FinalDelta = st.Deltas[n-1]
	}
	return old
}

func encodeGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Checkpoint mid-run, resume on a fresh simulator, finish: identical to the
// uninterrupted operator-by-operator run, from this commit's blob (no Prev)
// and from one laid out like the parent's (Prev present, dropped by gob).
// The line-search plan covers the other side of the prev bookkeeping: an
// Updater that hands back its input vector.
func TestFusedStepCheckpointResume(t *testing.T) {
	st := fusedStore(t, data.TaskLogisticRegression, false)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 24, BatchSize: 64, Lambda: 1e-4}
	plans := append(planner.Space(p), gd.NewSVRG(p, 5), gd.NewLineSearchBGD(p, 0.5))
	for _, plan := range plans {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s/workers=%d", plan.Name(), workers)
			opts := engine.Options{Seed: 13, Workers: workers}
			want := runPlan(t, st, operatorPlan(plan), opts)

			tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < want.Iterations/2; i++ {
				if err := tr.Step(); err != nil {
					t.Fatal(err)
				}
			}
			cp, err := tr.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := cp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			parentBlob := encodeAsParent(t, cp)
			if len(parentBlob) <= len(blob) {
				t.Fatalf("%s: parent-layout blob (%d B) not larger than ours (%d B)", label, len(parentBlob), len(blob))
			}
			for name, b := range map[string][]byte{"resumed": blob, "resumed-from-parent-blob": parentBlob} {
				dec, err := engine.DecodeTrainState(b)
				if err != nil {
					t.Fatalf("%s/%s: %v", label, name, err)
				}
				rt, err := engine.Resume(cluster.New(cluster.Default()), st, &plan, opts, dec)
				if err != nil {
					t.Fatalf("%s/%s: %v", label, name, err)
				}
				for !rt.Done() {
					if err := rt.Step(); err != nil {
						t.Fatal(err)
					}
				}
				sameBits(t, label+"/"+name, want, rt.Finish())
			}
		}
	}
}

// inPlaceUpdater writes the new weights into the vector the context holds
// and hands that vector back — the one Updater shape the trainer still keeps
// a copy of the previous iterate for.
type inPlaceUpdater struct{ inner gd.GradientUpdater }

func (u inPlaceUpdater) Update(acc linalg.Vector, ctx *gd.Context) (linalg.Vector, error) {
	held := ctx.Weights
	w, err := u.inner.Update(acc, ctx)
	if err != nil {
		return nil, err
	}
	copy(held, w)
	ctx.Weights = held
	return held, nil
}

func TestInPlaceUpdaterKeepsItsDeltas(t *testing.T) {
	st := fusedStore(t, data.TaskSVM, true)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 24, BatchSize: 64, Lambda: 1e-4}
	plan := gd.NewMGD(p, gd.Eager, gd.RandomPartition)
	opts := engine.Options{Seed: 13, Workers: 1}
	want := runPlan(t, st, plan, opts)
	plan.Updater = inPlaceUpdater{plan.Updater.(gd.GradientUpdater)}
	sameBits(t, "in-place updater", want, runPlan(t, st, plan, opts))
}
