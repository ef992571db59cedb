package engine_test

// The single data path: a custom Transformer UDF is run once over every raw
// unit into a columnar arena of its own, and from there on the plan executes,
// is billed, checkpoints and resumes exactly like a stock one.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/planner"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// doublingTransformer parses like the stock transformer and doubles the
// label: a UDF whose output differs from the dataset's own arena.
type doublingTransformer struct{ inner gd.Transformer }

func (d doublingTransformer) Transform(raw string, ctx *gd.Context) (data.Row, error) {
	u, err := d.inner.Transform(raw, ctx)
	if err != nil {
		return u, err
	}
	u.Label *= 2
	return u, nil
}

func customSpace(st *storage.Store) []gd.Plan {
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 24, BatchSize: 64, Lambda: 1e-4}
	plans := planner.Space(p)
	for i := range plans {
		plans[i].Transformer = doublingTransformer{inner: plans[i].Transformer}
	}
	return plans
}

// All eleven plans, lazy and eager, under a custom Transformer: the same bits
// at 1 and 4 workers, and across a checkpoint taken mid-run and resumed (which
// re-runs the Transformer) on a fresh simulator.
func TestCustomTransformerParallelAndResumeBitwise(t *testing.T) {
	for _, dense := range []bool{false, true} {
		st := fusedStore(t, data.TaskLogisticRegression, dense)
		for _, plan := range customSpace(st) {
			label := fmt.Sprintf("dense=%v/%s", dense, plan.Name())
			want := runPlan(t, st, plan, engine.Options{Seed: 13, Workers: 1})
			if want.Iterations < 2 {
				t.Fatalf("%s: degenerate baseline: %d iterations", label, want.Iterations)
			}
			opts := engine.Options{Seed: 13, Workers: 4}
			sameBits(t, label+"/workers=4", want, runPlan(t, st, plan, opts))

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
			sameBits(t, label+"/resumed", want, resumeAndFinish(t, st, plan, opts, blob))
		}
	}
}

func resumeAndFinish(t *testing.T, st *storage.Store, plan gd.Plan, opts engine.Options, blob []byte) *engine.Result {
	t.Helper()
	cp, err := engine.DecodeTrainState(blob)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := engine.Resume(cluster.New(cluster.Default()), st, &plan, opts, cp)
	if err != nil {
		t.Fatalf("%s: %v", plan.Name(), err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return tr.Finish()
}

// TestCustomTransformerActuallyRuns guards the stock-transformer shortcut from
// both sides. A non-stock transformer is invoked for real, not bypassed: its
// run differs from the stock run over the same store. And its arena is an
// arena like any other: the run equals — weights, simulated time, accounting,
// so it took the blocked kernels and was billed for them — the stock run over
// a dataset whose labels were doubled up front.
func TestCustomTransformerActuallyRuns(t *testing.T) {
	for _, dense := range []bool{false, true} {
		st := fusedStore(t, data.TaskLinearRegression, dense)
		// The same generator output again, labels doubled in the arena only:
		// the records' text, and with it every byte the simulator charges,
		// is st's.
		doubled := fusedStore(t, data.TaskLinearRegression, dense)
		for i := 0; i < doubled.Dataset.N(); i++ {
			doubled.Dataset.Mat.SetLabel(i, 2*doubled.Dataset.Mat.Label(i))
		}
		opts := engine.Options{Seed: 13, Workers: 2}
		for _, custom := range customSpace(st) {
			label := fmt.Sprintf("dense=%v/%s", dense, custom.Name())
			stock := custom
			stock.Transformer = gd.FormatTransformer{Format: st.Dataset.Format}
			got := runPlan(t, st, custom, opts)
			sameBits(t, label, runPlan(t, doubled, stock, opts), got)
			if sameVectorBits(got.Weights, runPlan(t, st, stock, opts).Weights) {
				t.Fatalf("%s: custom transformer was bypassed: identical weights", label)
			}
		}
	}
}

// oneDenseTransformer returns one unit dense among sparse ones.
type oneDenseTransformer struct {
	inner gd.Transformer
	raw   string
}

func (m oneDenseTransformer) Transform(raw string, ctx *gd.Context) (data.Row, error) {
	u, err := m.inner.Transform(raw, ctx)
	if err == nil && raw == m.raw {
		u = data.NewDenseRow(u.Label, make([]float64, ctx.NumFeatures))
	}
	return u, err
}

// A Transformer whose rows do not share a layout cannot become an arena: the
// trainer is refused — at NewTrainer and at Resume alike, eager or lazy, with
// the unit named — instead of failing at the first pass that touches the row.
func TestMixedLayoutTransformerFailsNewTrainer(t *testing.T) {
	st := fusedStore(t, data.TaskSVM, false)
	p := gd.Params{Task: st.Dataset.Task, Format: st.Dataset.Format, Tolerance: 1e-9, MaxIter: 24, BatchSize: 64}
	const unit = 517
	for _, good := range []gd.Plan{gd.NewBGD(p), gd.NewSGD(p, gd.Lazy, gd.ShuffledPartition)} {
		bad := good
		bad.Transformer = oneDenseTransformer{inner: good.Transformer, raw: st.Dataset.Raw[unit]}
		for _, workers := range []int{1, 4} {
			opts := engine.Options{Seed: 13, Workers: workers}
			wantErr := func(when string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unit %d", unit)) {
					t.Fatalf("%s/workers=%d: %s: err = %v, want one naming unit %d", good.Name(), workers, when, err, unit)
				}
			}
			_, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &bad, opts)
			wantErr("NewTrainer", err)

			tr, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &good, opts)
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
			_, err = engine.Resume(cluster.New(cluster.Default()), st, &bad, opts, cp)
			wantErr("Resume", err)
		}
	}
}

// TestResumeFromParentWrittenCheckpoint resumes two checkpoints the commit
// before this data path wrote (testdata/trainstate-pr20-*.gob: MGD lazy
// shuffle, 12 of 24 iterations, seed 13, weights trace on). Both carry fields
// TrainState no longer has — the weights trace and the memo-exists flag, and
// the custom-transformer one the 400-unit parsed-units memo — which gob drops.
// The stock-plan checkpoint finishes bit for bit like today's uninterrupted
// run. The custom-transformer one finishes on the same weights and deltas;
// its clock does not compare, because its first twelve iterations were billed
// row by row.
func TestResumeFromParentWrittenCheckpoint(t *testing.T) {
	ds, err := synth.Generate(synth.Spec{Name: "compat", Task: data.TaskSVM, N: 400, D: 8, Density: 0.5, Noise: 0.1, Margin: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Build(ds, storage.Layout{PartitionBytes: 4 << 10, PageBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p := gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-9, MaxIter: 24, BatchSize: 32}
	opts := engine.Options{Seed: 13, Workers: 1}
	for _, name := range []string{"stock", "custom"} {
		blob, err := os.ReadFile("testdata/trainstate-pr20-" + name + ".gob")
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"Trace", "Lazy"} {
			if !strings.Contains(string(blob), field) {
				t.Fatalf("%s: blob's type carries no %s field", name, field)
			}
		}
		plan := gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition)
		if name == "custom" {
			plan.Transformer = wrapTransformer{inner: plan.Transformer}
		}
		want := runPlan(t, st, plan, opts)
		got := resumeAndFinish(t, st, plan, opts, blob)
		if name == "stock" {
			sameBits(t, name, want, got)
		} else if !sameVectorBits(got.Weights, want.Weights) || !sameVectorBits(got.Deltas, want.Deltas) {
			t.Fatalf("%s: resumed run differs from the uninterrupted one", name)
		}
	}
}
