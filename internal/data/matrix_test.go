package data

import (
	"math"
	"math/rand"
	"testing"

	"ml4all/internal/linalg"
)

// randomRows generates standalone rows: sparse ones for LIBSVM-style datasets
// (drawn with occasional duplicate indices, which SortDedup sums), dense
// otherwise.
func randomRows(t *testing.T, r *rand.Rand, n, d int, sparse bool) []Row {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		label := float64(r.Intn(5)) - 2
		if sparse {
			nnz := r.Intn(d/2 + 1)
			idx := make([]int32, 0, nnz)
			val := make([]float64, 0, nnz)
			for k := 0; k < nnz; k++ {
				idx = append(idx, int32(r.Intn(d)))
				val = append(val, math.Round(r.NormFloat64()*1e4)/1e4)
			}
			m, err := linalg.SortDedup(idx, val)
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = NewSparseRow(label, idx[:m], val[:m])
			continue
		}
		v := make([]float64, d)
		for j := range v {
			v[j] = math.Round(r.NormFloat64()*1e4) / 1e4
		}
		rows[i] = NewDenseRow(label, v)
	}
	return rows
}

// TestArenaRowsMatchStandaloneRowsBitwise is the bitwise-equivalence property at
// the heart of the columnar layout: for sparse and dense data alike, a
// dataset packed into the arena must hand out rows identical — labels,
// indices and values to the last bit — to the standalone rows it was built
// from, and identical to re-parsing its own raw text, through the arena
// parser and line by line (the path the engine's stock transformer rides).
func TestArenaRowsMatchStandaloneRowsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, task := range []TaskKind{TaskSVM, TaskLogisticRegression, TaskLinearRegression} {
		for _, sparse := range []bool{true, false} {
			rows := randomRows(t, r, 120, 25, sparse)
			ds := datasetOf(t, "t", task, rows)
			if ds.N() != len(rows) {
				t.Fatalf("%v sparse=%v: N=%d want %d", task, sparse, ds.N(), len(rows))
			}
			for i, u := range rows {
				if !RowsEqual(u, ds.Row(i)) {
					t.Fatalf("%v sparse=%v row %d: standalone %v != arena %v", task, sparse, i, u, ds.Row(i))
				}
				if u.NNZ() != ds.Mat.RowNNZ(i) {
					t.Fatalf("%v sparse=%v row %d: NNZ diverges", task, sparse, i)
				}
			}
			m2, err := ParseMatrix(ds.Raw, ds.Format)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ds.N(); i++ {
				if !RowsEqual(ds.Row(i), m2.Row(i)) {
					t.Fatalf("%v sparse=%v row %d: reparse diverges", task, sparse, i)
				}
				if u, ok, err := ds.Format.ParseLine(ds.Raw[i]); err != nil || !ok || !RowsEqual(u, ds.Row(i)) {
					t.Fatalf("%v sparse=%v row %d: ParseLine gives %v (ok=%v err=%v)", task, sparse, i, u, ok, err)
				}
			}
		}
	}
}

func TestMatrixSliceAndGatherAreViews(t *testing.T) {
	ds := datasetOf(t, "t", TaskSVM, randomRows(t, rand.New(rand.NewSource(3)), 40, 10, true))
	sl := ds.Mat.Slice(10, 25)
	if sl.NumRows() != 15 {
		t.Fatalf("slice rows = %d", sl.NumRows())
	}
	for i := 0; i < sl.NumRows(); i++ {
		if !RowsEqual(sl.Row(i), ds.Row(10+i)) {
			t.Fatalf("slice row %d diverges", i)
		}
	}
	g := ds.Mat.Gather([]int{5, 5, 39, 0})
	want := []int{5, 5, 39, 0}
	for i, j := range want {
		if !RowsEqual(g.Row(i), ds.Row(j)) {
			t.Fatalf("gather row %d != base row %d", i, j)
		}
	}
	// Views of views compose against the base.
	gg := g.Gather([]int{2, 0})
	if !RowsEqual(gg.Row(0), ds.Row(39)) || !RowsEqual(gg.Row(1), ds.Row(5)) {
		t.Fatal("nested view rows diverge")
	}
	// Zero-copy: a label write through the base is visible in every view.
	ds.Mat.SetLabel(39, 123)
	if g.Row(2).Label != 123 {
		t.Fatal("view did not observe base label write — views are copies, not aliases")
	}
}

func TestSplitProducesSharedArenaViews(t *testing.T) {
	ds := datasetOf(t, "t", TaskSVM, randomRows(t, rand.New(rand.NewSource(5)), 300, 12, true))
	train, test := ds.Split(0.8, 9)
	if train.N()+test.N() != ds.N() {
		t.Fatalf("split lost rows: %d+%d != %d", train.N(), test.N(), ds.N())
	}
	// Raw strings are shared headers, not re-rendered copies.
	seen := 0
	for k := 0; k < train.N(); k++ {
		for i := 0; i < ds.N() && seen == k; i++ {
			if ds.Raw[i] == train.Raw[k] && RowsEqual(ds.Row(i), train.Row(k)) {
				seen++
			}
		}
	}
	if seen != train.N() {
		t.Fatalf("only %d of %d train rows trace back to the parent", seen, train.N())
	}
	// Aliasing proof: the split shares the parent's arena.
	ds.Mat.SetLabel(0, 777)
	found := false
	for k := 0; k < train.N() && !found; k++ {
		found = train.Row(k).Label == 777
	}
	for k := 0; k < test.N() && !found; k++ {
		found = test.Row(k).Label == 777
	}
	if !found {
		t.Fatal("no split side observed the parent label write — arena was copied")
	}
}

// TestSplitSeedStability pins the exact row assignment of Split for a fixed
// seed: index-sliced views must keep reproducing the same membership across
// releases, since stored experiment seeds depend on it.
func TestSplitSeedStability(t *testing.T) {
	rows := make([]Row, 20)
	for i := range rows {
		rows[i] = NewSparseRow(float64(i), []int32{int32(i)}, []float64{1})
	}
	ds := datasetOf(t, "t", TaskSVM, rows)
	train, test := ds.Split(0.5, 42)
	var gotTrain, gotTest []int
	for i := 0; i < train.N(); i++ {
		gotTrain = append(gotTrain, int(train.Row(i).Label))
	}
	for i := 0; i < test.N(); i++ {
		gotTest = append(gotTest, int(test.Row(i).Label))
	}
	// The membership below is the output of rand.NewSource(42) Float64
	// draws against 0.5 — frozen on purpose; a change here is a breaking
	// change to every stored split seed.
	wantTrain := []int{0, 1, 3, 4, 5, 7, 8, 11, 12, 13, 15}
	wantTest := []int{2, 6, 9, 10, 14, 16, 17, 18, 19}
	if len(gotTrain) != len(wantTrain) || len(gotTest) != len(wantTest) {
		t.Fatalf("split sizes %d/%d, want %d/%d — seed stability broken",
			len(gotTrain), len(gotTest), len(wantTrain), len(wantTest))
	}
	for i := range wantTrain {
		if gotTrain[i] != wantTrain[i] {
			t.Fatalf("train[%d] = %d, want %d — seed stability broken", i, gotTrain[i], wantTrain[i])
		}
	}
	for i := range wantTest {
		if gotTest[i] != wantTest[i] {
			t.Fatalf("test[%d] = %d, want %d — seed stability broken", i, gotTest[i], wantTest[i])
		}
	}
}

func TestSampleIsSharedArenaView(t *testing.T) {
	ds := datasetOf(t, "t", TaskLinearRegression, randomRows(t, rand.New(rand.NewSource(8)), 60, 8, false))
	s := ds.Sample(25, 7)
	if s.N() != 25 {
		t.Fatalf("sample size %d", s.N())
	}
	ds.Mat.SetLabel(0, 555)
	hit := false
	for i := 0; i < s.N() && !hit; i++ {
		hit = s.Row(i).Label == 555
	}
	// Row 0 may or may not be in the sample; assert aliasing only when it is.
	inSample := false
	for i := 0; i < s.N(); i++ {
		if s.Raw[i] == ds.Raw[0] {
			inSample = true
		}
	}
	if inSample && !hit {
		t.Fatal("sampled row did not observe parent label write")
	}
}

func TestMatrixBuilderErrors(t *testing.T) {
	b := NewDenseMatrixBuilder(2, 3)
	if err := b.AppendDense(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendDense(1, []float64{1, 2}); err == nil {
		t.Fatal("ragged dense row accepted")
	}
	if err := b.AppendSparse(1, []int32{0}, []float64{1}); err == nil {
		t.Fatal("sparse append on dense builder accepted")
	}
	sb := NewMatrixBuilder(0, 0)
	if err := sb.AppendSparse(1, []int32{0, 1}, []float64{1}); err == nil {
		t.Fatal("length-mismatched sparse row accepted")
	}
	if err := sb.AppendSparse(1, []int32{-1}, []float64{1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := sb.AppendSparse(1, []int32{3, 1, 3}, []float64{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	m := sb.Build()
	r := m.Row(0)
	if len(r.Idx) != 2 || r.Idx[0] != 1 || r.Idx[1] != 3 || r.Vals[1] != 5 {
		t.Fatalf("dup-sum normalization wrong: %v %v", r.Idx, r.Vals)
	}
}

// TestAppendRowsMergesBitwise pins the merge step behind the engine's
// materialize and Matrix.Compact: concatenating arenas into one shared
// builder via AppendRows must produce rows bitwise identical to the source
// matrices, in order, for dense and sparse layouts, identity views and
// gathered views alike — without re-normalizing (the sources are already
// SortDedup'd).
func TestAppendRowsMergesBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, sparse := range []bool{true, false} {
		// Three source matrices of differing sizes, the third a gathered view.
		var sources []*Matrix
		for k, n := range []int{7, 1, 12} {
			m := datasetOf(t, "src", TaskSVM, randomRows(t, r, n, 9, sparse)).Mat
			if k == 2 {
				m = m.Gather([]int{11, 0, 5, 5, 3})
			}
			sources = append(sources, m)
		}
		b := NewMatrixBuilder(0, 0)
		total := 0
		for _, src := range sources {
			if err := b.AppendRows(src); err != nil {
				t.Fatalf("sparse=%v: %v", sparse, err)
			}
			total += src.NumRows()
		}
		merged := b.Build()
		if merged.NumRows() != total {
			t.Fatalf("sparse=%v: merged %d rows, want %d", sparse, merged.NumRows(), total)
		}
		at := 0
		for _, src := range sources {
			for i := 0; i < src.NumRows(); i++ {
				if !RowsEqual(src.Row(i), merged.Row(at)) {
					t.Fatalf("sparse=%v: merged row %d != source row %d: %v vs %v",
						sparse, at, i, merged.Row(at), src.Row(i))
				}
				at++
			}
		}
	}
}

// TestAppendRowsRejectsLayoutMismatch: layouts and strides must agree.
func TestAppendRowsRejectsLayoutMismatch(t *testing.T) {
	db := NewDenseMatrixBuilder(1, 3)
	if err := db.AppendDense(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dense3 := db.Build()
	sb := NewMatrixBuilder(1, 1)
	if err := sb.AppendSparse(1, []int32{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	sparse1 := sb.Build()

	b := NewDenseMatrixBuilder(0, 5)
	if err := b.AppendRows(dense3); err == nil {
		t.Fatal("stride mismatch accepted")
	}
	if err := b.AppendRows(sparse1); err == nil {
		t.Fatal("sparse rows accepted by dense builder")
	}
	b2 := NewMatrixBuilder(0, 0)
	if err := b2.AppendRows(sparse1); err != nil {
		t.Fatal(err)
	}
	if err := b2.AppendRows(dense3); err == nil {
		t.Fatal("dense rows accepted by sparse-fixed builder")
	}
}

// TestBuilderResetReuse pins the pooled-ingest lifecycle: BuildView aliases
// the arena, Reset recycles it (keeping capacity, unfixing the layout), and a
// builder alternates sparse and dense service across cycles with results
// bitwise identical to fresh construction.
func TestBuilderResetReuse(t *testing.T) {
	b := NewMatrixBuilder(0, 0)
	for cycle := 0; cycle < 3; cycle++ {
		// Sparse cycle.
		if err := b.AppendSparse(2, []int32{4, 1, 1}, []float64{0.5, 1, 2}); err != nil {
			t.Fatal(err)
		}
		mv := b.BuildView()
		ref := NewSparseRow(2, []int32{1, 4}, []float64{3, 0.5})
		if mv.NumRows() != 1 || !RowsEqual(mv.Row(0), ref) {
			t.Fatalf("cycle %d sparse view: %v want %v", cycle, mv.Row(0), ref)
		}
		b.Reset()
		// Dense cycle via SetDense + DenseRowBuffer (the padded-request path).
		if err := b.SetDense(4); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		buf, err := b.DenseRowBuffer()
		if err != nil {
			t.Fatal(err)
		}
		copy(buf, []float64{7, 8})
		b.CommitDenseRow(1)
		dv := b.BuildView()
		if dv.NumRows() != 1 || !RowsEqual(dv.Row(0), NewDenseRow(1, []float64{7, 8, 0, 0})) {
			t.Fatalf("cycle %d dense view: %v", cycle, dv.Row(0))
		}
		if err := b.SetDense(2); err == nil {
			t.Fatal("SetDense accepted on a fixed builder")
		}
		b.Reset()
	}
}

// TestMaxIndexIsTheRowWalk: a dense view answers MaxIndex from its stride;
// the answer is the largest MaxIndex of its rows, as walking them gives, on
// dense and sparse arenas, empty ones and gathered views.
func TestMaxIndexIsTheRowWalk(t *testing.T) {
	walk := func(m *Matrix) int {
		hi := -1
		for i := 0; i < m.NumRows(); i++ {
			hi = max(hi, m.Row(i).MaxIndex())
		}
		return hi
	}
	r := rand.New(rand.NewSource(5))
	views := map[string]*Matrix{
		"empty dense":  NewDenseMatrixBuilder(0, 7).Build(),
		"empty sparse": NewMatrixBuilder(0, 0).Build(),
		"no features":  datasetOf(t, "t", TaskSVM, []Row{NewDenseRow(1, nil), NewDenseRow(0, nil)}).Mat,
	}
	for _, sparse := range []bool{false, true} {
		m := datasetOf(t, "t", TaskSVM, randomRows(t, r, 60, 12, sparse)).Mat
		name := map[bool]string{false: "dense", true: "sparse"}[sparse]
		views[name] = m
		views[name+" gathered"] = m.Gather([]int{7, 3, 3, 59})
		views[name+" gathered empty"] = m.Gather(nil)
		views[name+" slice"] = m.Slice(10, 20)
	}
	for name, m := range views {
		if got, want := m.MaxIndex(), walk(m); got != want {
			t.Errorf("%s: MaxIndex %d, row walk %d", name, got, want)
		}
	}
}
