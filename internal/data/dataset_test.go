package data

import (
	"math"
	"testing"
)

// datasetOf packs standalone rows into an arena, as a generator would, and
// wraps it in a Dataset. The rows must share one layout.
func datasetOf(t testing.TB, name string, task TaskKind, rows []Row) *Dataset {
	t.Helper()
	b := NewMatrixBuilder(len(rows), 0)
	for _, r := range rows {
		var err error
		if r.IsSparse() {
			err = b.AppendSparse(r.Label, r.Idx, r.Vals)
		} else {
			err = b.AppendDense(r.Label, r.Vals)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return FromMatrix(name, task, b.Build())
}

// TestFromMatrixSparse: a dataset over an arena built row by row reports the
// format, dimensionality and density of its rows.
func TestFromMatrixSparse(t *testing.T) {
	ds := datasetOf(t, "toy", TaskSVM, []Row{
		NewSparseRow(1, []int32{0, 4}, []float64{1, 2}),
		NewSparseRow(-1, []int32{2}, []float64{3}),
	})
	if ds.Format != FormatLIBSVM {
		t.Fatalf("format = %v, want libsvm", ds.Format)
	}
	if ds.NumFeatures != 5 {
		t.Fatalf("NumFeatures = %d, want 5", ds.NumFeatures)
	}
	if got, want := ds.Density, 3.0/10.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("density = %g, want %g", got, want)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.SizeBytes() == 0 {
		t.Fatalf("N=%d SizeBytes=%d", ds.N(), ds.SizeBytes())
	}
}

func TestFromMatrixDenseRendersCSV(t *testing.T) {
	rows := []Row{
		NewDenseRow(1, []float64{0.5, 0.25}),
		NewDenseRow(-1, []float64{1, 0}),
	}
	ds := datasetOf(t, "densetoy", TaskLinearRegression, rows)
	if ds.Format != FormatCSV {
		t.Fatalf("format = %v, want csv", ds.Format)
	}
	// Raw lines must parse back to the same rows under the dataset format.
	for i, raw := range ds.Raw {
		r, ok, err := ds.Format.ParseLine(raw)
		if err != nil || !ok {
			t.Fatalf("line %d: %v", i, err)
		}
		if !RowsEqual(r, rows[i]) {
			t.Fatalf("line %d round trip: %v != %v", i, r, rows[i])
		}
	}
}

func TestSplitProportionsAndDimensions(t *testing.T) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = NewSparseRow(1, []int32{int32(i % 20)}, []float64{1})
	}
	// Give the max index only to one row so a split side may lose it.
	rows[0] = NewSparseRow(1, []int32{99}, []float64{1})
	ds := datasetOf(t, "toy", TaskSVM, rows)

	train, test := ds.Split(0.8, 1)
	if train.N()+test.N() != ds.N() {
		t.Fatalf("split lost units: %d + %d != %d", train.N(), test.N(), ds.N())
	}
	frac := float64(train.N()) / float64(ds.N())
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("train fraction = %g, want ~0.8", frac)
	}
	if train.NumFeatures != ds.NumFeatures || test.NumFeatures != ds.NumFeatures {
		t.Fatalf("split changed dimensionality: %d/%d vs %d",
			train.NumFeatures, test.NumFeatures, ds.NumFeatures)
	}
}

func TestSplitDeterministic(t *testing.T) {
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = NewSparseRow(float64(i%2*2-1), []int32{int32(i % 7)}, []float64{1})
	}
	ds := datasetOf(t, "toy", TaskSVM, rows)
	a1, _ := ds.Split(0.5, 42)
	a2, _ := ds.Split(0.5, 42)
	if a1.N() != a2.N() {
		t.Fatalf("same seed, different splits: %d vs %d", a1.N(), a2.N())
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rows := make([]Row, 50)
	for i := range rows {
		rows[i] = NewSparseRow(float64(i), []int32{0}, []float64{float64(i)})
	}
	ds := datasetOf(t, "toy", TaskSVM, rows)
	s := ds.Sample(20, 7)
	if s.N() != 20 {
		t.Fatalf("sample size = %d, want 20", s.N())
	}
	seen := map[float64]bool{}
	for _, u := range s.Rows() {
		if seen[u.Label] {
			t.Fatalf("duplicate sample %g", u.Label)
		}
		seen[u.Label] = true
	}
	// Oversampling returns everything.
	if all := ds.Sample(500, 7); all.N() != 50 {
		t.Fatalf("oversample = %d, want 50", all.N())
	}
}

func TestValidateCatchesBadDimensions(t *testing.T) {
	ds := datasetOf(t, "toy", TaskSVM, []Row{NewSparseRow(1, []int32{3}, []float64{1})})
	ds.NumFeatures = 2 // corrupt
	if err := ds.Validate(); err == nil {
		t.Fatal("Validate accepted feature index beyond NumFeatures")
	}
}

func TestStats(t *testing.T) {
	ds := datasetOf(t, "toy", TaskLogisticRegression, []Row{
		NewSparseRow(1, []int32{0, 1}, []float64{1, 1}),
	})
	st := ds.Stats()
	if st.Name != "toy" || st.Points != 1 || st.Features != 2 || st.Task != TaskLogisticRegression {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTaskKindString(t *testing.T) {
	if TaskSVM.String() != "SVM" || TaskLogisticRegression.String() != "LogR" || TaskLinearRegression.String() != "LinR" {
		t.Fatal("task names diverge from Table 2 notation")
	}
}
