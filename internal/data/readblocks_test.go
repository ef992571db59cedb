package data

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// ReadMatrix parses its text blocks in parallel and joins them in file order;
// ParseMatrix is the serial reference it must equal bit for bit. These tests
// cut small inputs into dozens of blocks so that records, errors, blank runs
// and the CSV stride land on every side of a block boundary.

// sameMatrix describes how a differs from b, field by field and bit for bit,
// or returns "" when they are the same matrix.
func sameMatrix(a, b *Matrix) string {
	bits := func(x []float64) []uint64 {
		out := make([]uint64, len(x))
		for i, v := range x {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	switch {
	case a.n != b.n || a.dense != b.dense || a.stride != b.stride:
		return fmt.Sprintf("shape: %d rows dense=%v stride %d vs %d rows dense=%v stride %d", a.n, a.dense, a.stride, b.n, b.dense, b.stride)
	case !slices.Equal(bits(a.labels), bits(b.labels)):
		return fmt.Sprintf("labels %v vs %v", a.labels, b.labels)
	case !slices.Equal(a.offsets, b.offsets):
		return fmt.Sprintf("offsets %v vs %v", a.offsets, b.offsets)
	case !slices.Equal(a.indices, b.indices):
		return fmt.Sprintf("indices %v vs %v", a.indices, b.indices)
	case !slices.Equal(bits(a.values), bits(b.values)):
		return fmt.Sprintf("values %v vs %v", a.values, b.values)
	case !slices.Equal(a.text, b.text) || (a.text == nil) != (b.text == nil):
		return fmt.Sprintf("records %q vs %q", a.text, b.text)
	case a.rowIDs != nil || b.rowIDs != nil:
		return "a parsed matrix is a view"
	}
	return ""
}

// checkBlocks reads text in blocks of about blockBytes and holds the result
// to ParseMatrix over the text's lines: the same matrix, or the same error
// text. It returns that error.
func checkBlocks(t *testing.T, text string, f Format, blockBytes int) error {
	t.Helper()
	got, err := readMatrix(strings.NewReader(text), f, blockBytes)
	want, werr := ParseMatrix(strings.Split(text, "\n"), f)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%v at %d-byte blocks: read error %v, serial error %v\ntext %.300q", f, blockBytes, err, werr, text)
	}
	if err != nil {
		return err
	}
	if d := sameMatrix(got, want); d != "" {
		t.Fatalf("%v at %d-byte blocks: read and serial matrices differ: %s\ntext %.300q", f, blockBytes, d, text)
	}
	return nil
}

func FuzzReadMatrix(f *testing.F) {
	f.Add("1 1:0.5 3:1\n-1 2:0.25\n\n# c\n+1 2:0.1 4:0.4 10:0.3\n", uint8(0), false)
	f.Add("1 1:1\n1 x:1\n1 2:2\n1 1:y\n", uint8(3), false)
	f.Add("1 4294967296:1\n1 1:1 1:2 1:3\n1 2147483647:1", uint8(40), false)
	f.Add("1.5, 2, 3\n-1,0.25,1\r\n# c\n\n+1,1e3,-0\n", uint8(1), true)
	f.Add("1,2,3\n1,2,3\n1,2\n1,2,3,4\n", uint8(0), true)
	f.Add("\n\n# only comments\n\n", uint8(9), true)
	f.Add("1,"+strings.Repeat("0.125,", 60)+"1\n2,3\n", uint8(200), true)
	for i, c := range slackCases() {
		f.Add(c.text, uint8(17*i), c.f == FormatCSV)
	}
	f.Fuzz(func(t *testing.T, text string, size uint8, csv bool) {
		format := FormatLIBSVM
		if csv {
			format = FormatCSV
		}
		checkBlocks(t, text, format, 16+int(size)%241)
	})
}

func TestReadMatrixAcrossBlocks(t *testing.T) {
	// Every line of these inputs is 8 bytes with its newline, so 32-byte
	// blocks hold exactly four lines: line k is in block (k-1)/4.
	lines := func(n int, line string) []string { return slices.Repeat([]string{line}, n) }
	twoErrors := lines(40, "1 1:0.5")
	twoErrors[9] = "1 x:0.5"  // line 10, block 2
	twoErrors[29] = "1 1:0.y" // line 30, block 7
	ragged := lines(20, "1,2,3,4")
	ragged[8] = "1234567" // line 9 opens block 2 and has no features

	onlyBlank := func(b string) bool {
		for _, l := range strings.Split(b, "\n") {
			if l = strings.TrimSpace(l); l != "" && l[0] != '#' {
				return false
			}
		}
		return true
	}
	anyBlock := func(shape func(string) bool) func([]string) bool {
		return func(bs []string) bool { return slices.ContainsFunc(bs, shape) }
	}

	cases := []struct {
		name       string
		text       string
		f          Format
		blockBytes int
		wantErr    string // a prefix of the error; "" for none
		// blocks, when set, must hold for the blocks the reader cut, so the
		// case really exercises the boundary it names.
		blocks func([]string) bool
	}{
		{"errors in blocks 2 and 7", strings.Join(twoErrors, "\n") + "\n", FormatLIBSVM, 32,
			`data: line 10: data: bad LIBSVM index "x"`,
			func(bs []string) bool { return strings.Contains(bs[2], "x") && strings.Contains(bs[7], "y") }},
		{"ragged CSV record opens a later block", strings.Join(ragged, "\n") + "\n", FormatCSV, 32,
			"data: line 9: data: dense row has 0 features, matrix stride is 3",
			anyBlock(func(b string) bool { return strings.HasPrefix(b, "1234567\n") })},
		{"blocks of blank and comment lines",
			"1 1:1\n" + strings.Repeat("\n", 40) + "# a comment line\n# another one\n" + strings.Repeat("  \r\n", 9) + "-1 2:2\n",
			FormatLIBSVM, 16, "", anyBlock(onlyBlank)},
		{"blank blocks before the first CSV record", strings.Repeat("\n", 50) + "1,2\n3,4\n", FormatCSV, 16, "",
			func(bs []string) bool { return onlyBlank(bs[0]) && onlyBlank(bs[1]) }},
		{"record longer than a block", "1 2:2\n1" + strings.Repeat(" 3:0.25", 30) + "\n-1 1:1\n", FormatLIBSVM, 16, "",
			anyBlock(func(b string) bool { return len(b) > 16 })},
		{"no trailing newline", strings.Join(lines(30, "1,2,3,4"), "\n"), FormatCSV, 32, "",
			func(bs []string) bool { return len(bs) > 1 && !strings.HasSuffix(bs[len(bs)-1], "\n") }},
		{"first CSV record fails", "\n# c\n1,x\n1,2\n", FormatCSV, 16, `data: line 3: data: bad CSV value "x"`, nil},
		{"no record at all", "\n\n# c\n\n", FormatLIBSVM, 16, "", nil},
		{"empty input", "", FormatCSV, 16, "", nil},
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			if c.blocks != nil {
				blocks, err := readTextBlocks(strings.NewReader(c.text), c.blockBytes)
				if err != nil {
					t.Fatal(err)
				}
				if !c.blocks(blocks) {
					t.Fatalf("%s: the %d blocks cut do not have the shape the case is about: %q", c.name, len(blocks), blocks)
				}
			}
			err := checkBlocks(t, c.text, c.f, c.blockBytes)
			if (err != nil) != (c.wantErr != "") || (err != nil && !strings.HasPrefix(err.Error(), c.wantErr)) {
				t.Fatalf("GOMAXPROCS %d, %s: error %v, want %q", procs, c.name, err, c.wantErr)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// slackCases are inputs on which ReadMatrix's per-block bounds (a row per
// line, a value per LIBSVM colon or per CSV column) overshoot what the parse
// keeps, so blocks land short of their bounds and must be closed up.
func slackCases() []struct {
	name string
	text string
	f    Format
} {
	svm := func(i int) string { return fmt.Sprintf("%d %d:0.%d %d:%d.5", i%3-1, i%7+1, i, i%5+9, i) }
	csv := func(i int) string { return fmt.Sprintf("%d,%d.25,-%d,0.%d", i%2, i, i%9, i) }
	join := func(n int, line func(int) string, sep string, every int, extra string) string {
		var b strings.Builder
		for i := range n {
			b.WriteString(line(i) + sep)
			if every > 0 && i%every == every-1 {
				b.WriteString(extra)
			}
		}
		return b.String()
	}
	return []struct {
		name string
		text string
		f    Format
	}{
		{"LIBSVM blank lines", join(60, svm, "\n", 4, "\n  \n"), FormatLIBSVM},
		{"CSV blank lines", join(60, csv, "\n", 3, "\n\t\n"), FormatCSV},
		{"LIBSVM comments holding colons", join(60, svm, "\n", 5, "# at 12:30: a:b:c\n"), FormatLIBSVM},
		{"CSV comments holding colons", join(60, csv, "\n", 5, "# 1:2,3:4\n"), FormatCSV},
		{"duplicate LIBSVM indices", join(60, func(i int) string { return svm(i) + fmt.Sprintf(" %d:1 %d:2", i%7+1, i%7+1) }, "\n", 0, ""), FormatLIBSVM},
		{"LIBSVM CRLF", join(60, svm, "\r\n", 0, ""), FormatLIBSVM},
		{"CSV CRLF", join(60, csv, "\r\n", 0, ""), FormatCSV},
		{"LIBSVM no final newline", strings.TrimSuffix(join(60, svm, "\n", 0, ""), "\n"), FormatLIBSVM},
		{"CSV no final newline", strings.TrimSuffix(join(60, csv, "\n", 0, ""), "\n"), FormatCSV},
		{"all at once", strings.TrimSuffix(join(60, func(i int) string { return svm(i) + " 2:1 2:1" }, "\r\n", 3, "\n# x:y\n\n"), "\r\n"), FormatLIBSVM},
	}
}

// TestReadMatrixClosesUpSlack: wherever blocks fall short of their bounds in
// the one arena, the rows are moved up against each other, and the matrix is
// ParseMatrix's bit for bit, at any block size and core count.
func TestReadMatrixClosesUpSlack(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range slackCases() {
			for blockBytes := 16; blockBytes <= 256; blockBytes += 15 {
				if err := checkBlocks(t, c.text, c.f, blockBytes); err != nil {
					t.Fatalf("GOMAXPROCS %d, %s at %d-byte blocks: %v", procs, c.name, blockBytes, err)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	// Every case leaves slack: its arena bound holds more rows or values than
	// the parse keeps (CRLF and a missing final newline leave none, but move
	// the line and record ends the bounds are counted from).
	for _, c := range slackCases() {
		m, err := ParseMatrix(strings.Split(c.text, "\n"), c.f)
		if err != nil {
			t.Fatal(err)
		}
		rows, vals := strings.Count(c.text, "\n"), strings.Count(c.text, ":")
		if !strings.HasSuffix(c.text, "\n") {
			rows++
		}
		if c.f == FormatCSV {
			vals = rows * m.stride
		}
		slack := rows > m.NumRows() || vals > m.NNZ()
		edge := strings.Contains(c.text, "\r") || !strings.HasSuffix(c.text, "\n")
		if !slack && !edge {
			t.Fatalf("%s: no slack: %d rows and %d values bound, %d and %d kept", c.name, rows, vals, m.NumRows(), m.NNZ())
		}
	}
}

// TestReadMatrixAllocatesOneArena: reading a dense CSV allocates the text it
// reads and one arena, not a second arena the blocks' rows are joined into.
func TestReadMatrixAllocatesOneArena(t *testing.T) {
	const rows, stride = 40000, 48
	var b strings.Builder
	for i := range rows {
		b.WriteString(strconv.Itoa(i % 2))
		for j := range stride {
			b.WriteString("," + strconv.Itoa((i+j)%10))
		}
		b.WriteByte('\n')
	}
	text := b.String()
	// The arena: labels, values and each row's record header.
	arena := rows * (8 + 8*stride + int(unsafe.Sizeof("")))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := ReadMatrix(strings.NewReader(text), FormatCSV)
	runtime.ReadMemStats(&after)
	if err != nil || m.NumRows() != rows {
		t.Fatalf("read %v rows, err %v", m, err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(len(text)) + uint64(1.2*float64(arena)); alloc > limit {
		t.Fatalf("reading %.1f MB of CSV into a %.1f MB arena allocated %.1f MB, over text + 1.2 × arena = %.1f MB",
			float64(len(text))/1e6, float64(arena)/1e6, float64(alloc)/1e6, float64(limit)/1e6)
	}
}
