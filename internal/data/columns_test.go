package data

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestProjectColumns is the Matrix.Project table test: the column
// specification is a projection of the parsed arena.
func TestProjectColumns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		line   string
		format Format
		spec   ColumnSpec
		want   Row // the projected row, when errHas is empty
		errHas string
	}{
		{name: "label 2, features 4-6", line: "9,1,8,0.1,0.2,0.3", format: FormatCSV,
			spec: ColumnSpec{LabelCol: 2, FeatLo: 4, FeatHi: 6}, want: NewDenseRow(1, []float64{0.1, 0.2, 0.3})},
		{name: "label 1, features 2-3", line: "5,6,7", format: FormatCSV,
			spec: ColumnSpec{LabelCol: 1, FeatLo: 2, FeatHi: 3}, want: NewDenseRow(5, []float64{6, 7})},
		{name: "no feature range takes every other column", line: "9,1,8", format: FormatCSV,
			spec: ColumnSpec{LabelCol: 2}, want: NewDenseRow(1, []float64{9, 8})},
		{name: "label inside the feature range", line: "1,2,3", format: FormatCSV,
			spec: ColumnSpec{LabelCol: 2, FeatLo: 1, FeatHi: 3}, errHas: "inside feature range"},
		{name: "feature range beyond the row", line: "1,2", format: FormatCSV,
			spec: ColumnSpec{LabelCol: 1, FeatLo: 2, FeatHi: 9}, errHas: "feature column 9 beyond 2 columns"},
		{name: "label beyond the row", line: "1,2", format: FormatCSV,
			spec: ColumnSpec{LabelCol: 3}, errHas: "label column 3 beyond 2 columns"},
		{name: "sparse source", line: "1 2:0.5", format: FormatLIBSVM,
			spec: ColumnSpec{LabelCol: 1}, errHas: "dense"},
	} {
		m, err := ParseMatrix([]string{tc.line}, tc.format)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p, err := m.Project(tc.spec)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !p.IsDense() || p.NumRows() != 1 || !RowsEqual(p.Row(0), tc.want) {
			t.Errorf("%s: projected %v, want %v", tc.name, p.Rows(), tc.want)
		}
	}
}

// TestProjectMatchesReorderedText: projecting the parsed arena gives, bit for
// bit, the rows of a file written in the projected column order — the label
// field first, then the selected feature fields.
func TestProjectMatchesReorderedText(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + r.Intn(8)
		spec := ColumnSpec{LabelCol: 1 + r.Intn(cols)}
		if left, right := spec.LabelCol-1, cols-spec.LabelCol; r.Intn(3) > 0 && left+right > 0 {
			// A range on one side of the label (Validate forbids one around it).
			lo, n := 1, left
			if left == 0 || (right > 0 && r.Intn(2) == 0) {
				lo, n = spec.LabelCol+1, right
			}
			spec.FeatLo = lo + r.Intn(n)
			spec.FeatHi = spec.FeatLo + r.Intn(lo+n-spec.FeatLo)
		}
		lines := make([]string, 1+r.Intn(5))
		reordered := make([]string, len(lines))
		for i := range lines {
			fields := make([]string, cols)
			for c := range fields {
				fields[c] = fmt.Sprintf(" %g ", r.NormFloat64()*float64(r.Intn(1000)))
			}
			lines[i] = strings.Join(fields, ",")
			picked := []string{fields[spec.LabelCol-1]}
			for c := 1; c <= cols; c++ {
				if c != spec.LabelCol && (spec.FeatLo == 0 || (c >= spec.FeatLo && c <= spec.FeatHi)) {
					picked = append(picked, fields[c-1])
				}
			}
			reordered[i] = strings.Join(picked, ",")
		}
		m, err := ParseMatrix(lines, FormatCSV)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Project(spec)
		if err != nil {
			t.Fatalf("spec %+v over %d columns: %v", spec, cols, err)
		}
		want, err := ParseMatrix(reordered, FormatCSV)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() || got.Stride() != want.Stride() {
			t.Fatalf("spec %+v: projected %d×%d, reordered text %d×%d", spec, got.NumRows(), got.Stride(), want.NumRows(), want.Stride())
		}
		for i := 0; i < got.NumRows(); i++ {
			if !RowsEqual(got.Row(i), want.Row(i)) {
				t.Fatalf("spec %+v row %d: projected %v, reordered text %v", spec, i, got.Row(i), want.Row(i))
			}
		}
	}
}
