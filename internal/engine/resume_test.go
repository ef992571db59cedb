package engine_test

// Resume equivalence: Checkpoint at iteration k then Resume on a fresh
// simulator must reproduce the uninterrupted run bitwise — weights, deltas,
// simulated time and the full cluster accounting — across all three tasks,
// representative plans from every corner of the space (full-batch, sampled,
// lazy, stateful-context variants, non-stock transformers) and worker counts
// 1/2/8. A second test pins the Trainer lifecycle itself: driving Step by
// hand over the whole eleven-plan planner space equals engine.Run exactly.

import (
	"fmt"
	"reflect"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// resumeLayout keeps datasets multi-partition so partition-based samplers,
// distributed placement and the block cache all stay exercised.
var resumeLayout = storage.Layout{PartitionBytes: 32 << 10, PageBytes: 1 << 10}

func resumeDataset(t testing.TB, task data.TaskKind) *storage.Store {
	t.Helper()
	ds, err := synth.Generate(synth.Spec{
		Name: "resume-" + task.String(), Task: task,
		N: 2500, D: 16, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Build(ds, resumeLayout)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// wrapTransformer hides the stock FormatTransformer behind a distinct type,
// forcing the engine to run it over the raw units into an arena of its own
// (the stock transformer's output is the dataset's arena, adopted as is).
type wrapTransformer struct{ inner gd.Transformer }

func (w wrapTransformer) Transform(raw string, ctx *gd.Context) (data.Row, error) {
	return w.inner.Transform(raw, ctx)
}

// resumePlans returns the representative plan set for one task: BGD, the
// sampled SGD/MGD corners (eager+bernoulli, eager+random, lazy+shuffle), the
// stateful-context variants (SVRG, line-search BGD), and a lazy plan with a
// non-stock transformer exercising the arena rebuild on resume.
func resumePlans(task data.TaskKind, format data.Format) []gd.Plan {
	p := gd.Params{Task: task, Format: format, Tolerance: 1e-9, MaxIter: 36, BatchSize: 220}
	plans := []gd.Plan{
		gd.NewBGD(p),
		gd.NewSGD(p, gd.Eager, gd.RandomPartition),
		gd.NewMGD(p, gd.Eager, gd.Bernoulli),
		gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition),
		gd.NewSVRG(p, 5),
		gd.NewLineSearchBGD(p, 0.5),
	}
	nonStock := gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition)
	nonStock.Transformer = wrapTransformer{inner: nonStock.Transformer}
	plans = append(plans, nonStock)
	return plans
}

// checkSame asserts bitwise equality of everything the acceptance criteria
// name: weights, iteration counts, deltas, simulated time, accounting.
func checkSame(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	if !got.Weights.Equal(want.Weights, 0) {
		t.Fatalf("%s: weights differ", label)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d != %d", label, got.Iterations, want.Iterations)
	}
	if len(got.Deltas) != len(want.Deltas) {
		t.Fatalf("%s: %d deltas != %d", label, len(got.Deltas), len(want.Deltas))
	}
	for i := range got.Deltas {
		if got.Deltas[i] != want.Deltas[i] {
			t.Fatalf("%s: delta[%d] %g != %g", label, i, got.Deltas[i], want.Deltas[i])
		}
	}
	if got.FinalDelta != want.FinalDelta {
		t.Fatalf("%s: final delta %g != %g", label, got.FinalDelta, want.FinalDelta)
	}
	if got.Time != want.Time {
		t.Fatalf("%s: sim time %v != %v", label, got.Time, want.Time)
	}
	if got.Converged != want.Converged || got.Budgeted != want.Budgeted || got.Diverged != want.Diverged {
		t.Fatalf("%s: termination flags differ", label)
	}
	if !reflect.DeepEqual(got.Acct, want.Acct) {
		t.Fatalf("%s: accounting differs:\n got %+v\nwant %+v", label, got.Acct, want.Acct)
	}
}

// TestCheckpointResumeEquivalence is the headline guarantee: for every task
// × representative plan × worker count, a run checkpointed at iteration k
// (serialized through Encode/Decode) and resumed on a fresh simulator
// finishes bitwise identical to the uninterrupted run — and the checkpointed
// trainer itself, left running, is undisturbed by the snapshot.
func TestCheckpointResumeEquivalence(t *testing.T) {
	tasks := []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression}
	for _, task := range tasks {
		st := resumeDataset(t, task)
		for _, plan := range resumePlans(task, st.Dataset.Format) {
			for _, workers := range []int{1, 2, 8} {
				plan := plan
				name := fmt.Sprintf("%s/%s/workers=%d", task, plan.Name(), workers)
				t.Run(name, func(t *testing.T) {
					opts := engine.Options{Seed: 11, Workers: workers}
					base, err := engine.Run(cluster.New(cluster.Default()), st, &plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					if base.Iterations < 2 {
						t.Fatalf("degenerate baseline: %d iterations", base.Iterations)
					}

					tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					k := base.Iterations / 2
					for i := 0; i < k; i++ {
						if err := tr.Step(); err != nil {
							t.Fatal(err)
						}
					}
					cp, err := tr.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					enc, err := cp.Encode()
					if err != nil {
						t.Fatal(err)
					}
					dec, err := engine.DecodeTrainState(enc)
					if err != nil {
						t.Fatal(err)
					}

					// The original trainer, checkpoint taken, must finish
					// exactly like the uninterrupted run.
					for !tr.Done() {
						if err := tr.Step(); err != nil {
							t.Fatal(err)
						}
					}
					checkSame(t, "checkpointed-but-continued", base, tr.Finish())

					// The resumed trainer on a fresh simulator must too.
					rt, err := engine.Resume(cluster.New(cluster.Default()), st, &plan, opts, dec)
					if err != nil {
						t.Fatal(err)
					}
					for !rt.Done() {
						if err := rt.Step(); err != nil {
							t.Fatal(err)
						}
					}
					checkSame(t, "resumed", base, rt.Finish())
				})
			}
		}
	}
}

// TestTrainerMatchesRunAcrossSpace drives the Trainer lifecycle by hand over
// the full eleven-plan optimizer space at workers 1/2/8 and asserts the
// outcome equals engine.Run bitwise — the "adaptation disabled ⇒ refactor is
// invisible" acceptance criterion.
func TestTrainerMatchesRunAcrossSpace(t *testing.T) {
	st := resumeDataset(t, data.TaskLogisticRegression)
	p := gd.Params{
		Task: data.TaskLogisticRegression, Format: st.Dataset.Format,
		Tolerance: 1e-9, MaxIter: 25, BatchSize: 220, Lambda: 0.01,
	}
	for _, plan := range planner.Space(p) {
		for _, workers := range []int{1, 2, 8} {
			plan := plan
			t.Run(fmt.Sprintf("%s/workers=%d", plan.Name(), workers), func(t *testing.T) {
				opts := engine.Options{Seed: 5, Workers: workers}
				base, err := engine.Run(cluster.New(cluster.Default()), st, &plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				for !tr.Done() {
					if err := tr.Step(); err != nil {
						t.Fatal(err)
					}
				}
				checkSame(t, "trainer-vs-run", base, tr.Finish())
			})
		}
	}
}

// TestResumeRejectsMismatch pins the guard rails: resuming with a different
// plan or onto a differently-configured simulator fails loudly instead of
// silently diverging.
func TestResumeRejectsMismatch(t *testing.T) {
	st := resumeDataset(t, data.TaskSVM)
	plans := resumePlans(data.TaskSVM, st.Dataset.Format)
	plan := plans[0]
	opts := engine.Options{Seed: 11, Workers: 2}
	tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	cp, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := plans[1]
	if _, err := engine.Resume(cluster.New(cluster.Default()), st, &other, opts, cp); err == nil {
		t.Fatal("resume with a different plan succeeded")
	}
	narrow, err := synth.Generate(synth.Spec{
		Name: "resume-narrow", Task: data.TaskSVM,
		N: 2500, D: 8, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	narrowStore, err := storage.Build(narrow, resumeLayout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Resume(cluster.New(cluster.Default()), narrowStore, &plan, opts, cp); err == nil {
		t.Fatal("resume onto a store with a different feature count succeeded")
	}
	cfg := cluster.Default()
	cfg.JitterFrac = 0
	if _, err := engine.Resume(cluster.New(cfg), st, &plan, opts, cp); err == nil {
		t.Fatal("resume on a differently-configured sim succeeded")
	}
}

// TestSwitchThenCheckpointResume pins Trainer.Switch: mid-run it stands the
// next plan up with the weights, iteration counter, delta history and start
// clock carried (and nothing else: a step-size schedule continues, the
// successor's sampler starts fresh), a checkpoint taken after it resumes
// bitwise like any other, and a finished trainer has nothing to switch from.
func TestSwitchThenCheckpointResume(t *testing.T) {
	st := resumeDataset(t, data.TaskLogisticRegression)
	plans := resumePlans(st.Dataset.Task, st.Dataset.Format)
	for i, from := range plans {
		to := plans[(i+1)%len(plans)]
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s→%s/workers=%d", from.Name(), to.Name(), workers)
			opts := engine.Options{Seed: 11, Workers: workers}
			run := func(resumeAt int) *engine.Result {
				sim := cluster.New(cluster.Default())
				tr, err := engine.NewTrainer(sim, st, &from, opts)
				if err != nil {
					t.Fatal(err)
				}
				for tr.Iteration() < 9 {
					if err := tr.Step(); err != nil {
						t.Fatal(err)
					}
				}
				before, w := sim.Now(), tr.Weights().Clone()
				if tr, err = tr.Switch(&to); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if tr.Iteration() != 9 || len(tr.Deltas()) != 9 || !tr.Weights().Equal(w, 0) || tr.Plan() != &to {
					t.Fatalf("%s: after Switch: iteration %d, %d deltas, plan %s", label, tr.Iteration(), len(tr.Deltas()), tr.Plan().Name())
				}
				if sim.Now() <= before {
					t.Fatalf("%s: standing %s up charged nothing", label, to.Name())
				}
				for !tr.Done() {
					if tr.Iteration() == resumeAt {
						cp, err := tr.Checkpoint()
						if err != nil {
							t.Fatal(err)
						}
						blob, err := cp.Encode()
						if err != nil {
							t.Fatal(err)
						}
						if cp, err = engine.DecodeTrainState(blob); err != nil {
							t.Fatal(err)
						}
						if tr, err = engine.Resume(cluster.New(cluster.Default()), st, &to, opts, cp); err != nil {
							t.Fatalf("%s: resuming at %d: %v", label, resumeAt, err)
						}
					}
					if err := tr.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := tr.Switch(&from); err == nil {
					t.Fatalf("%s: Switch on a finished trainer succeeded", label)
				}
				return tr.Finish()
			}
			want := run(-1)
			if want.Iterations != to.MaxIter || want.PlanName != to.Name() {
				t.Fatalf("%s: ran %d iterations as %s", label, want.Iterations, want.PlanName)
			}
			checkSame(t, label+"/resumed at the switch", want, run(9))
			checkSame(t, label+"/resumed after the switch", want, run(20))
		}
	}
}

// TestResumeRecomputesOpSums resumes checkpoints whose per-partition op sums
// (a field TrainState once carried) are cut short or wrong. The sums are a
// pure function of the plan and the store, so a resumed run recomputes them
// rather than trust the blob: it neither indexes past a short cache nor
// bills made-up op counts as simulated seconds, and finishes like the
// uninterrupted run, bit for bit.
func TestResumeRecomputesOpSums(t *testing.T) {
	st := resumeDataset(t, data.TaskSVM)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 12}
	plan := gd.NewBGD(p)
	opts := engine.Options{Seed: 11, Workers: 2}
	want, err := engine.Run(cluster.New(cluster.Default()), st, &plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wrong := make([]float64, st.NumPartitions())
	for i := range wrong {
		wrong[i] = 1e9
	}
	for name, ops := range map[string][]float64{"short": {1}, "wrong": wrong} {
		old := asParent(cp)
		old.OpsByPart = ops
		dec, err := engine.DecodeTrainState(encodeGob(t, old))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt, err := engine.Resume(cluster.New(cluster.Default()), st, &plan, opts, dec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Step panicked: %v", name, r)
				}
			}()
			for !rt.Done() {
				if err := rt.Step(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}()
		checkSame(t, name, want, rt.Finish())
	}
}
