package data

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the two text formats: the per-line parser (one standalone
// Row) and the arena parser must never panic, must agree with each other on
// every well-formed line, and must reject anything the arena layout cannot
// hold (e.g. indices beyond int32).

func FuzzParseLIBSVM(f *testing.F) {
	f.Add("1 1:0.5 3:1")
	f.Add("-1 2:0.25")
	f.Add("+1 2:0.1 4:0.4 10:0.3")
	f.Add("# comment")
	f.Add("")
	f.Add("1 1:1 1:2 1:3")                  // duplicate indices (summed)
	f.Add("1 4294967296:1")                 // index beyond int32
	f.Add("1 2147483647:1")                 // max valid 1-based index
	f.Add("1 99999999999999999999:1")       // index beyond int64
	f.Add("0.5 1:1e308 2:1e308")            // large values
	f.Add("nan 1:nan")                      // NaN label/value parse
	f.Add("1 1:")                           // empty value
	f.Add("1 :1")                           // empty index
	f.Add("1 -5:1")                         // negative index
	f.Add("1\t2:3")                         // tab separators
	f.Add(strings.Repeat("1:1 ", 50) + "x") // trailing junk

	f.Fuzz(func(t *testing.T, line string) {
		row, ok, err := ParseLIBSVMLine(line)
		if err != nil && ok {
			t.Fatalf("ok with error: %v", err)
		}
		m, merr := ParseMatrix([]string{line}, FormatLIBSVM)
		if (err == nil) != (merr == nil) {
			t.Fatalf("parser disagreement on %q: line err=%v, arena err=%v", line, err, merr)
		}
		if err != nil {
			return
		}
		if !ok {
			if m.NumRows() != 0 {
				t.Fatalf("skipped line %q produced %d arena rows", line, m.NumRows())
			}
			return
		}
		if m.NumRows() != 1 {
			t.Fatalf("line %q produced %d arena rows, want 1", line, m.NumRows())
		}
		if !RowsEqual(row, m.Row(0)) {
			t.Fatalf("line %q: parsed row %v != arena row %v", line, row, m.Row(0))
		}
		// Normalization invariants the compute kernels rely on.
		r := m.Row(0)
		for k := 1; k < len(r.Idx); k++ {
			if r.Idx[k-1] >= r.Idx[k] {
				t.Fatalf("line %q: indices not strictly ascending: %v", line, r.Idx)
			}
		}
		if mi := r.MaxIndex(); mi > math.MaxInt32 {
			t.Fatalf("line %q: index %d beyond int32", line, mi)
		}
	})
}

func FuzzParseDense(f *testing.F) {
	f.Add("1.5, 2, 3, -4")
	f.Add("-1,0.25")
	f.Add("# comment")
	f.Add("")
	f.Add("1")            // label only, zero features
	f.Add("1,")           // empty trailing field
	f.Add("nan,inf,-inf") // special floats
	f.Add("1,2,3\x00")    // embedded NUL
	f.Add("1e309,1")      // label overflow
	f.Add("5," + strings.Repeat("0.125,", 100) + "1")

	f.Fuzz(func(t *testing.T, line string) {
		row, ok, err := ParseCSVLine(line, 0)
		if err != nil && ok {
			t.Fatalf("ok with error: %v", err)
		}
		m, merr := ParseMatrix([]string{line}, FormatCSV)
		if (err == nil) != (merr == nil) {
			t.Fatalf("parser disagreement on %q: line err=%v, arena err=%v", line, err, merr)
		}
		if err != nil || !ok {
			return
		}
		if m.NumRows() != 1 {
			t.Fatalf("line %q produced %d arena rows, want 1", line, m.NumRows())
		}
		if !RowsEqual(row, m.Row(0)) {
			t.Fatalf("line %q: parsed row %v != arena row %v", line, row, m.Row(0))
		}
	})
}
