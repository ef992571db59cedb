package metrics

import (
	"math"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
	"ml4all/internal/synth"
)

func TestPredictClassificationSign(t *testing.T) {
	w := linalg.Vector{1, -1}
	up := data.NewDenseRow(1, linalg.Vector{2, 1})  // score 1 => +1
	un := data.NewDenseRow(-1, linalg.Vector{0, 1}) // score -1 => -1
	if Predict(data.TaskSVM, w, up) != 1 {
		t.Fatal("positive score misclassified")
	}
	if Predict(data.TaskLogisticRegression, w, un) != -1 {
		t.Fatal("negative score misclassified")
	}
}

func TestPredictRegressionRawScore(t *testing.T) {
	w := linalg.Vector{0.5}
	u := data.NewDenseRow(0, linalg.Vector{4})
	if got := Predict(data.TaskLinearRegression, w, u); got != 2 {
		t.Fatalf("regression prediction = %g, want 2", got)
	}
}

// csvDataset parses dense label-first records into an SVM dataset.
func csvDataset(t *testing.T, lines ...string) *data.Dataset {
	t.Helper()
	m, err := data.ParseMatrix(lines, data.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	return data.FromMatrix("t", data.TaskSVM, m)
}

func TestEvaluatePerfectModel(t *testing.T) {
	ds := csvDataset(t, "1,1,0", "-1,-1,0")
	rep, err := Evaluate(data.TaskSVM, linalg.Vector{1, 0}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MSE != 0 || rep.Accuracy != 1 || rep.N != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestEvaluateAllWrong(t *testing.T) {
	ds := csvDataset(t, "1,-1")
	rep, err := Evaluate(data.TaskSVM, linalg.Vector{1}, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction -1 vs truth +1: squared error 4.
	if rep.MSE != 4 || rep.Accuracy != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestEvaluateEmptyErrors(t *testing.T) {
	ds := csvDataset(t)
	if _, err := Evaluate(data.TaskSVM, linalg.Vector{1}, ds); err == nil {
		t.Fatal("empty test set accepted")
	}
}

func TestEvaluateOnSeparableSyntheticData(t *testing.T) {
	// A half-decent training loop must beat coin flipping on gap data; here
	// we cheat and use the mean of positive minus negative points as w.
	ds := synth.MustGenerate(synth.Spec{
		Name: "t", Task: data.TaskSVM, N: 800, D: 20, Density: 1,
		Noise: 0, Margin: 2, Gap: 1.5, Seed: 11,
	})
	w := linalg.NewVector(ds.NumFeatures)
	for _, u := range ds.Rows() {
		u.AddScaledInto(w, u.Label)
	}
	rep, err := Evaluate(data.TaskSVM, w, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.9 {
		t.Fatalf("centroid classifier accuracy %.2f on separable data", rep.Accuracy)
	}
	if math.Abs(rep.MSE-4*(1-rep.Accuracy)) > 1e-9 {
		t.Fatalf("MSE %g inconsistent with accuracy %g (labels are ±1)", rep.MSE, rep.Accuracy)
	}
}
