package data

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ml4all/internal/linalg"
)

func TestParseLIBSVMLine(t *testing.T) {
	u, ok, err := ParseLIBSVMLine("+1 2:0.1 4:0.4 10:0.3")
	if err != nil || !ok {
		t.Fatalf("parse failed: ok=%v err=%v", ok, err)
	}
	if u.Label != 1 {
		t.Fatalf("label = %g, want 1", u.Label)
	}
	if !u.IsSparse() {
		t.Fatal("LIBSVM row not sparse")
	}
	wantIdx := []int32{1, 3, 9} // 1-based in text, 0-based stored
	if !reflect.DeepEqual(u.Idx, wantIdx) {
		t.Fatalf("indices = %v, want %v", u.Idx, wantIdx)
	}
	if u.NNZ() != 3 || u.MaxIndex() != 9 {
		t.Fatalf("NNZ/MaxIndex = %d/%d", u.NNZ(), u.MaxIndex())
	}
}

func TestParseLIBSVMSkipsBlanksAndComments(t *testing.T) {
	for _, line := range []string{"", "   ", "# comment"} {
		_, ok, err := ParseLIBSVMLine(line)
		if ok || err != nil {
			t.Fatalf("line %q: ok=%v err=%v, want skip", line, ok, err)
		}
	}
}

func TestParseLIBSVMErrors(t *testing.T) {
	bad := []string{
		"x 1:2",   // bad label
		"1 0:5",   // index < 1
		"1 a:5",   // bad index
		"1 2:xyz", // bad value
		"1 2",     // missing colon
		"1 :5",    // empty index
	}
	for _, line := range bad {
		if _, _, err := ParseLIBSVMLine(line); err == nil {
			t.Errorf("line %q: no error", line)
		}
	}
}

func TestParseCSVLine(t *testing.T) {
	u, ok, err := ParseCSVLine("1.5, 2, 3, -4", 0)
	if err != nil || !ok {
		t.Fatalf("parse failed: ok=%v err=%v", ok, err)
	}
	if u.Label != 1.5 || u.IsSparse() {
		t.Fatalf("label=%g sparse=%v", u.Label, u.IsSparse())
	}
	if !reflect.DeepEqual(u.Vals, []float64{2, 3, -4}) {
		t.Fatalf("features = %v", u.Vals)
	}
}

func TestParseCSVErrors(t *testing.T) {
	if _, _, err := ParseCSVLine("1,2", 5); err == nil {
		t.Error("label column out of range accepted")
	}
	if _, _, err := ParseCSVLine("x,2", 0); err == nil {
		t.Error("bad label accepted")
	}
	if _, _, err := ParseCSVLine("1,y", 0); err == nil {
		t.Error("bad value accepted")
	}
}

// TestLIBSVMRoundTripProperty: row -> String() -> parse reproduces the row.
func TestLIBSVMRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(21)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			nnz := r.Intn(8)
			idx := make([]int32, 0, nnz)
			val := make([]float64, 0, nnz)
			seen := map[int32]bool{}
			for len(idx) < nnz {
				i := int32(r.Intn(40))
				if seen[i] {
					continue
				}
				seen[i] = true
				idx = append(idx, i)
				val = append(val, math.Round(r.NormFloat64()*1e4)/1e4)
			}
			n, err := linalg.SortDedup(idx, val)
			if err != nil {
				panic(err)
			}
			label := 1.0
			if r.Float64() < 0.5 {
				label = -1
			}
			vals[0] = reflect.ValueOf(NewSparseRow(label, idx[:n], val[:n]))
		},
	}
	f := func(u Row) bool {
		// A row with no stored value renders as a bare label; it must still
		// parse. %g prints the shortest text that reads back to the same bits.
		parsed, ok, err := ParseLIBSVMLine(u.String())
		return err == nil && ok && RowsEqual(parsed, u)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	u := NewDenseRow(-1, []float64{0.5, 0, -2.25})
	parsed, ok, err := ParseCSVLine(u.CSVString(), 0)
	if err != nil || !ok {
		t.Fatalf("round trip failed: %v", err)
	}
	if !RowsEqual(parsed, u) {
		t.Fatalf("round trip = %v, want %v", parsed, u)
	}
}

// TestReadMatrixWriteMatrix: blank and comment lines are skipped, and what
// WriteMatrix writes reads back as the same rows.
func TestReadMatrixWriteMatrix(t *testing.T) {
	in := "1 1:0.5 3:1\n-1 2:0.25\n# comment\n\n1 1:2\n"
	m, err := ReadMatrix(strings.NewReader(in), FormatLIBSVM)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 3 {
		t.Fatalf("parsed %d rows, want 3", m.NumRows())
	}
	var sb strings.Builder
	if err := WriteMatrix(&sb, m); err != nil {
		t.Fatal(err)
	}
	again, err := ReadMatrix(strings.NewReader(sb.String()), FormatLIBSVM)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumRows() != 3 {
		t.Fatalf("re-parsed %d rows, want 3", again.NumRows())
	}
	for i := 0; i < 3; i++ {
		if !RowsEqual(m.Row(i), again.Row(i)) {
			t.Fatalf("row %d: %q != %q", i, m.Row(i), again.Row(i))
		}
	}
}

func TestReadMatrixReportsLineNumbers(t *testing.T) {
	// Blank and comment lines count: the bad record is the file's line 4.
	for f, in := range map[Format]string{
		FormatLIBSVM: "1 1:1\n\n# c\nbogus line:\n",
		FormatCSV:    "1,1\n\n# c\n1,bogus\n",
	} {
		_, err := ReadMatrix(strings.NewReader(in), f)
		if err == nil || !strings.Contains(err.Error(), "line 4") {
			t.Fatalf("%v: err = %v, want line-4 mention", f, err)
		}
	}
}

func TestFormatString(t *testing.T) {
	if FormatLIBSVM.String() != "libsvm" || FormatCSV.String() != "csv" {
		t.Fatal("format names wrong")
	}
}
