package data_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
	"ml4all/internal/synth"
)

// fmtLIBSVM and fmtCSV are the renderers as they were written before they
// appended into one buffer: one fmt verb per number. The text they produce is
// the canonical form files and fingerprints were built from, so the
// renderers must keep reproducing it byte for byte.
func fmtLIBSVM(u data.Unit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%g", u.Label)
	if u.IsSparse() {
		for k, i := range u.Sparse.Indices {
			fmt.Fprintf(&b, " %d:%g", i+1, u.Sparse.Values[k])
		}
		return b.String()
	}
	for i, v := range u.Dense {
		if v != 0 {
			fmt.Fprintf(&b, " %d:%g", i+1, v)
		}
	}
	return b.String()
}

func fmtCSV(u data.Unit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%g", u.Label)
	dense := u.Dense
	if u.IsSparse() {
		dense = u.Sparse.Dense(int(u.Sparse.MaxIndex()) + 1)
	}
	for _, v := range dense {
		fmt.Fprintf(&b, ",%g", v)
	}
	return b.String()
}

func checkRender(t *testing.T, u data.Unit) {
	t.Helper()
	if got, want := u.String(), fmtLIBSVM(u); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := u.CSVString(), fmtCSV(u); got != want {
		t.Fatalf("CSVString() = %q, want %q", got, want)
	}
	if r := u.Row(); r.String() != u.String() || r.CSVString() != u.CSVString() {
		t.Fatalf("Row renders %q / %q, Unit %q / %q", r.String(), r.CSVString(), u.String(), u.CSVString())
	}
}

func TestRenderersMatchFmt(t *testing.T) {
	awkward := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -2.2250738585072014e-308, math.MaxFloat64, 1e20, 1e21, 123456, 1234567, 1e-4, 1e-5,
		3, -42, 1 << 53, 0.1, 0.30000000000000004, 1.7976931348623157e308, 12345.678901234567, -0.06483,
	}
	idx := make([]int32, len(awkward))
	for k := range idx {
		idx[k] = int32(3 * k)
	}
	idx[len(idx)-1] = math.MaxInt32 - 1 // the widest index fmt rendered without wrapping
	for _, label := range awkward {
		checkRender(t, data.NewDenseUnit(label, awkward))
		u := data.NewSparseUnit(label, linalg.Sparse{Indices: idx[:len(idx)-1], Values: awkward[:len(idx)-1]})
		checkRender(t, u)
		wide := data.NewSparseUnit(label, linalg.Sparse{Indices: idx, Values: awkward})
		if got, want := wide.String(), fmtLIBSVM(wide); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	checkRender(t, data.NewDenseUnit(1, nil))
	checkRender(t, data.NewSparseUnit(-1, linalg.Sparse{}))

	// Every registry dataset's first rows, through both renderers and as the
	// Raw lines the generator hands to FromMatrix.
	for _, spec := range synth.Table2(1 << 20) { // floors every cardinality at 300 rows
		ds, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			u := ds.Row(i).Unit()
			checkRender(t, u)
			want := fmtLIBSVM(u)
			if ds.Format == data.FormatCSV {
				want = fmtCSV(u)
			}
			if ds.Raw[i] != want {
				t.Fatalf("%s Raw[%d] = %q, want %q", spec.Name, i, ds.Raw[i], want)
			}
		}
	}
}
