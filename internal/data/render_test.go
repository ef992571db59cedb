package data_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/synth"
)

// fmtLIBSVM and fmtCSV are the renderers as they were written before they
// appended into one buffer: one fmt verb per number. The text they produce is
// the canonical form files and fingerprints were built from, so the
// renderers must keep reproducing it byte for byte.
func fmtLIBSVM(r data.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%g", r.Label)
	for k, v := range r.Vals {
		switch {
		case r.IsSparse():
			fmt.Fprintf(&b, " %d:%g", r.Idx[k]+1, v)
		case v != 0:
			fmt.Fprintf(&b, " %d:%g", k+1, v)
		}
	}
	return b.String()
}

func fmtCSV(r data.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%g", r.Label)
	dense := r.Vals
	if r.IsSparse() {
		dense = make([]float64, r.MaxIndex()+1)
		for k, i := range r.Idx {
			dense[i] += r.Vals[k] // a stored -0 spreads as +0, as the sum it is
		}
	}
	for _, v := range dense {
		fmt.Fprintf(&b, ",%g", v)
	}
	return b.String()
}

func checkRender(t *testing.T, r data.Row) {
	t.Helper()
	if got, want := r.String(), fmtLIBSVM(r); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := r.CSVString(), fmtCSV(r); got != want {
		t.Fatalf("CSVString() = %q, want %q", got, want)
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
		checkRender(t, data.NewDenseRow(label, awkward))
		checkRender(t, data.NewSparseRow(label, idx[:len(idx)-1], awkward[:len(idx)-1]))
		wide := data.NewSparseRow(label, idx, awkward)
		if got, want := wide.String(), fmtLIBSVM(wide); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	checkRender(t, data.NewDenseRow(1, nil))
	checkRender(t, data.NewSparseRow(-1, nil, nil))

	// Every registry dataset's first rows, through both renderers and as the
	// Raw lines the generator hands to FromMatrix.
	for _, spec := range synth.Table2(1 << 20) { // floors every cardinality at 300 rows
		ds, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			r := ds.Row(i)
			checkRender(t, r)
			want := fmtLIBSVM(r)
			if ds.Format == data.FormatCSV {
				want = fmtCSV(r)
			}
			if ds.Raw[i] != want {
				t.Fatalf("%s Raw[%d] = %q, want %q", spec.Name, i, ds.Raw[i], want)
			}
		}
	}
}
