package ml4all

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/lang"
	"ml4all/internal/obs"
	"ml4all/internal/synth"
)

func testSystem() *System {
	sys := NewSystem()
	// Tame the estimator so facade tests stay fast.
	sys.Estimator.SampleSize = 300
	sys.Estimator.TimeBudget = 2
	sys.Estimator.Seed = 1
	return sys
}

func testDataset(t *testing.T, name string, n int) *data.Dataset {
	t.Helper()
	spec, err := synth.ByName(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		spec.N = n
	}
	return synth.MustGenerate(spec)
}

func TestOptimizeAndExecute(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 2000)
	p := Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.01, MaxIter: 300, Lambda: 0.01}

	dec, err := sys.Optimize(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Ranked) != 11 {
		t.Fatalf("ranked %d plans, want 11", len(dec.Ranked))
	}
	res, err := sys.Execute(ds, dec.Best.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || !res.Weights.IsFinite() {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestTrainIncludesOptimizerOverhead(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 2000)
	p := Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.01, MaxIter: 100, Lambda: 0.01}

	res, dec, err := sys.Train(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SpecTime <= 0 {
		t.Fatal("no speculation time recorded")
	}
	if res.Time <= dec.SpecTime {
		t.Fatalf("total %.2fs does not include speculation %.2fs plus training", res.Time, dec.SpecTime)
	}
}

func TestTrainAdaptive(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 2000)
	p := Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.01, MaxIter: 300, Lambda: 0.01}

	ar, err := sys.TrainAdaptive(ds, p, AdaptiveConfig{Every: 20})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Result == nil || ar.Decision == nil {
		t.Fatalf("incomplete adaptive outcome: %+v", ar)
	}
	if ar.Result.Iterations == 0 || !ar.Result.Weights.IsFinite() {
		t.Fatalf("bad adaptive result: %+v", ar.Result)
	}
	if !strings.HasPrefix(ar.Result.PlanName, ar.Decision.Best.Plan.Name()) {
		t.Fatalf("plan chain %s does not start at the optimizer's choice %s",
			ar.Result.PlanName, ar.Decision.Best.Plan.Name())
	}
	if ar.Result.Time <= ar.Decision.SpecTime {
		t.Fatalf("total %.2fs does not include speculation %.2fs plus training",
			ar.Result.Time, ar.Decision.SpecTime)
	}
}

func TestExecAdaptiveKnob(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 2000)
	sys.RegisterDataset("train.txt", ds)

	outs, err := sys.Exec(`Q1 = run classification on train.txt having epsilon 0.01, max iter 200, adaptive;`)
	if err != nil {
		t.Fatal(err)
	}
	m := outs[0].Model
	if m == nil || m.Name != "Q1" || len(m.Weights) != ds.NumFeatures {
		t.Fatalf("model = %+v", m)
	}
	if m.Iterations == 0 || m.TrainTime <= 0 {
		t.Fatalf("adaptive run produced no training: %+v", m)
	}

	// Adaptive rejects directives that pin the physical plan.
	if _, err := sys.Exec(`run classification on train.txt having adaptive using algorithm SGD;`); err == nil {
		t.Fatal("adaptive + using algorithm accepted")
	}
	if _, err := sys.Exec(`run classification on train.txt having time 1h, adaptive;`); err == nil {
		t.Fatal("adaptive + time constraint accepted")
	}
}

func TestExecEndToEnd(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "adult", 0)
	train, test := ds.Split(0.8, 1)
	sys.RegisterDataset("train.txt", train)
	sys.RegisterDataset("test.txt", test)

	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.txt")

	outs, err := sys.Exec(`
		Q1 = run logistic() on train.txt having epsilon 0.01, max iter 200;
		persist Q1 on ` + modelPath + `;
		r = predict on test.txt with ` + modelPath + `;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(outs))
	}
	m := outs[0].Model
	if m == nil || m.Name != "Q1" || len(m.Weights) != ds.NumFeatures {
		t.Fatalf("model = %+v", m)
	}
	// The run statement carries the decision its plan came from; the other
	// statements carry none.
	dec := outs[0].Decision
	if dec == nil || len(RankedPlanNames(dec)) != 11 || dec.Best.Plan.Name() != m.PlanName {
		t.Fatalf("decision = %+v, want the 11-plan ranking headed by %s", dec, m.PlanName)
	}
	if outs[1].Decision != nil || outs[2].Decision != nil {
		t.Fatal("persist/predict output carries a decision")
	}
	if outs[1].Path != modelPath {
		t.Fatalf("persist path = %q", outs[1].Path)
	}
	rep := outs[2].Report
	if rep == nil || rep.N != test.N() {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Accuracy < 0.5 {
		t.Fatalf("trained model no better than chance: accuracy %.3f", rep.Accuracy)
	}
}

func TestExecUsingClausePinsAlgorithm(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 1500)
	sys.RegisterDataset("d", ds)
	outs, err := sys.Exec(`run logistic() on d having max iter 50 using algorithm BGD;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].Model.PlanName; got != "BGD" {
		t.Fatalf("plan = %q, want BGD", got)
	}
	// Sampler pinning.
	outs, err = sys.Exec(`run logistic() on d having max iter 50 using algorithm MGD, sampler bernoulli();`)
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].Model.PlanName; !strings.Contains(got, "bernoulli") {
		t.Fatalf("plan = %q, want a bernoulli plan", got)
	}
}

// TestUnknownUsingNameFailsBeforeSpeculation: a misspelt algorithm or sampler
// is refused with the accepted names before the optimizer speculates
// anything, not after all three algorithms ran.
func TestUnknownUsingNameFailsBeforeSpeculation(t *testing.T) {
	sys := testSystem()
	sys.RegisterDataset("d", testDataset(t, "covtype", 1500))
	for _, tc := range []struct{ using, accepted string }{
		{"algorithm XGD", "BGD, SGD, MGD"},
		{"algorithm MGD, sampler shufle()", "shuffle"},
	} {
		q, err := lang.ParseOne(`run logistic() on d having max iter 50 using ` + tc.using + `;`)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		_, err = sys.OpenJob(q.(*lang.Run), JobOptions{Trace: tr})
		if err == nil || !strings.Contains(err.Error(), tc.accepted) {
			t.Fatalf("using %s: err = %v, want one listing %q", tc.using, err, tc.accepted)
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "speculate" {
				t.Fatalf("using %s: the optimizer speculated before the name was checked", tc.using)
			}
		}
	}
}

func TestExecTimeConstraintViolation(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 2000)
	sys.RegisterDataset("d", ds)
	// One simulated millisecond is never enough; the optimizer must refuse
	// and tell the user which constraint to revisit.
	_, err := sys.Exec(`run logistic() on d having time 1ms, epsilon 0.01;`)
	if err == nil || !strings.Contains(err.Error(), "time constraint") {
		t.Fatalf("err = %v, want time-constraint refusal", err)
	}
}

func TestExecErrors(t *testing.T) {
	sys := testSystem()
	cases := []string{
		`run classification on missing_file.txt;`,  // unknown dataset
		`persist nope on m.txt;`,                   // unknown model
		`r = predict on x.txt with missing.model;`, // unknown model file
		`run wibble() on d;`,                       // unknown gradient
	}
	for _, q := range cases {
		if _, err := sys.Exec(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

// TestExecEmptyFileNamesTheFile: a data file with no record fails at its own
// name, not at the speculation sample drawn from it.
func TestExecEmptyFileNamesTheFile(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{"empty.csv": "", "comments.txt": "# header\n\n# nothing else\n"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := testSystem().Exec(`m = run logistic on ` + path + ` having epsilon 0.01;`)
		if want := "ml4all: " + path + ": no records"; err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", name, err, want)
		}
	}
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.txt")
	m := &Model{
		Name: "Q1", Task: data.TaskLogisticRegression,
		Weights: []float64{0.25, -1.5, 3e-7}, PlanName: "SGD-lazy-shuffle", Iterations: 42,
	}
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != m.Task || got.PlanName != m.PlanName {
		t.Fatalf("metadata lost: %+v", got)
	}
	if len(got.Weights) != 3 {
		t.Fatalf("weights = %v", got.Weights)
	}
	for i := range m.Weights {
		if got.Weights[i] != m.Weights[i] {
			t.Fatalf("weight %d: %g != %g", i, got.Weights[i], m.Weights[i])
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel("/nonexistent/model.txt"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte(sealed("# header only\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(empty); err == nil {
		t.Error("weightless file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte(sealed("not-a-number\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bad); err == nil {
		t.Error("garbage weights accepted")
	}
}

func TestLoadDatasetSniffsFormat(t *testing.T) {
	dir := t.TempDir()
	libsvm := filepath.Join(dir, "a.libsvm")
	if err := os.WriteFile(libsvm, []byte("1 1:0.5 2:0.25\n-1 3:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "b.csv")
	if err := os.WriteFile(csv, []byte("1,0.5,0.25\n-1,0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys := testSystem()
	dsA, err := sys.LoadDataset(libsvm, data.TaskSVM)
	if err != nil {
		t.Fatal(err)
	}
	if dsA.Format != data.FormatLIBSVM || dsA.N() != 2 {
		t.Fatalf("libsvm load: %+v", dsA.Stats())
	}
	dsB, err := sys.LoadDataset(csv, data.TaskSVM)
	if err != nil {
		t.Fatal(err)
	}
	if dsB.Format != data.FormatCSV || dsB.NumFeatures != 2 {
		t.Fatalf("csv load: %+v", dsB.Stats())
	}
}

// TestLoadDatasetWideFirstRecord: the format sniff reads the first record
// under the loader's own record limit, so a file whose first line is longer
// than bufio.Scanner's 64 KB default loads — directly and from a statement.
func TestLoadDatasetWideFirstRecord(t *testing.T) {
	const cols = 12000
	var sb strings.Builder
	for r := 0; r < 3; r++ {
		sb.WriteString([]string{"1", "-1", "1"}[r])
		for c := 0; c < cols; c++ {
			fmt.Fprintf(&sb, ",%d.125", (r+c)%7)
		}
		sb.WriteString("\n")
	}
	if first := strings.IndexByte(sb.String(), '\n'); first <= 64<<10 {
		t.Fatalf("first record is only %d bytes", first)
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := testSystem().LoadDataset(path, data.TaskSVM)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Format != data.FormatCSV || ds.N() != 3 || ds.NumFeatures != cols {
		t.Fatalf("wide load: %+v", ds.Stats())
	}
	outs, err := testSystem().Exec(`Q = run svm() on ` + path + ` having max iter 5;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(outs[0].Model.Weights); got != cols {
		t.Fatalf("model dimensionality = %d, want %d", got, cols)
	}
}

// TestResumeJobRecostsToSamePlan: a job over a file, checkpointed mid-run and
// resumed on a fresh System — which loads the file and runs the optimizer
// (speculation included) again — lands on the checkpoint's plan and finishes
// with the weights of a run that was never stopped.
func TestResumeJobRecostsToSamePlan(t *testing.T) {
	ds := testDataset(t, "adult", 1500)
	path := filepath.Join(t.TempDir(), "adult.libsvm")
	if err := os.WriteFile(path, []byte(strings.Join(ds.Raw, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stmt, err := lang.ParseOne(`m = run logistic on ` + path + ` having epsilon 0.001, max iter 300 using algorithm MGD;`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*lang.Run)
	finish := func(j *TrainJob) *Model {
		for !j.Done() {
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return j.Model()
	}
	straight, err := testSystem().OpenJob(q, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := finish(straight)
	if want.Iterations <= 7 {
		t.Fatalf("the straight run ended after %d iterations, before the checkpoint", want.Iterations)
	}

	stopped, err := testSystem().OpenJob(q, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := stopped.Step(); err != nil {
			t.Fatal(err)
		}
	}
	state, err := stopped.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := testSystem().ResumeJob(q, state, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.PlanName() != straight.PlanName() || resumed.Iteration() != 7 {
		t.Fatalf("resumed on %s at iteration %d, want %s at 7", resumed.PlanName(), resumed.Iteration(), straight.PlanName())
	}
	got := finish(resumed)
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Iterations != want.Iterations || got.TrainTime != want.TrainTime || !slices.EqualFunc(got.Weights, want.Weights, sameBits) {
		t.Fatalf("resumed run: %d iterations, %v sim s; straight run: %d, %v — or weights differ", got.Iterations, got.TrainTime, want.Iterations, want.TrainTime)
	}
}

func TestColumnSpecQueries(t *testing.T) {
	dir := t.TempDir()
	// Columns: junk, label, junk, f1, f2 (1-based: label=2, features 4-5).
	path := filepath.Join(dir, "cols.csv")
	content := "9,1,8,0.5,1.5\n9,-1,8,-0.5,-1.5\n9,1,8,0.25,0.75\n9,-1,8,-0.25,-0.75\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sys := testSystem()
	outs, err := sys.Exec(`Q = run svm() on ` + path + `:2, ` + path + `:4-5 having max iter 50;`)
	if err != nil {
		t.Fatal(err)
	}
	got := outs[0].Model
	if len(got.Weights) != 2 {
		t.Fatalf("model dimensionality = %d, want 2 (columns 4-5)", len(got.Weights))
	}

	// The projection is the dataset a file already written in the projected
	// column order loads as: same plan, same run, same weights to the bit.
	plain := filepath.Join(dir, "plain.csv")
	if err := os.WriteFile(plain, []byte("1,0.5,1.5\n-1,-0.5,-1.5\n1,0.25,0.75\n-1,-0.25,-0.75\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outs, err = testSystem().Exec(`Q = run svm() on ` + plain + ` having max iter 50;`)
	if err != nil {
		t.Fatal(err)
	}
	want := outs[0].Model
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.PlanName != want.PlanName || got.Iterations != want.Iterations || got.TrainTime != want.TrainTime ||
		!slices.EqualFunc(got.Weights, want.Weights, sameBits) {
		t.Fatalf("projected: %s, %d iterations, %v sim s, %v; written in that order: %s, %d, %v, %v",
			got.PlanName, got.Iterations, got.TrainTime, got.Weights, want.PlanName, want.Iterations, want.TrainTime, want.Weights)
	}

	// A spec that reaches past the file's columns, or is put on a LIBSVM
	// source, is an error.
	sparse := filepath.Join(dir, "sparse.txt")
	if err := os.WriteFile(sparse, []byte("1 1:0.5 2:1.5\n-1 1:-0.5 2:-1.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`run svm() on ` + path + `:2, ` + path + `:4-9;`,
		`run svm() on ` + path + `:7;`,
		`run svm() on ` + path + `:4, ` + path + `:1-5;`,
		`run svm() on ` + sparse + `:1;`,
	} {
		if _, err := sys.Exec(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}
