package data_test

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
	"ml4all/internal/storage"
)

// refRecords is the loader the one-pass reader replaced, spelled with the
// standard library only: split the text into lines, trim, drop blank and
// comment lines, cut fields with strings.Fields / strings.Split and convert
// every number with strconv. It returns the trimmed records and the rows
// they parse to (sparse rows normalized by linalg.SortDedup).
func refRecords(t *testing.T, text string, f data.Format) (recs []string, rows []data.Row) {
	t.Helper()
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("reference parse of %q: %v", s, err)
		}
		return v
	}
	for _, line := range strings.Split(text, "\n") {
		rec := strings.TrimSpace(line)
		if rec == "" || rec[0] == '#' {
			continue
		}
		recs = append(recs, rec)
		if f == data.FormatCSV {
			fields := strings.Split(rec, ",")
			vals := make([]float64, 0, len(fields)-1)
			for _, p := range fields[1:] {
				vals = append(vals, num(strings.TrimSpace(p)))
			}
			rows = append(rows, data.NewDenseRow(num(strings.TrimSpace(fields[0])), vals))
			continue
		}
		fields := strings.Fields(rec)
		var idx []int32
		var vals []float64
		for _, p := range fields[1:] {
			i, v, _ := strings.Cut(p, ":")
			n, err := strconv.Atoi(i)
			if err != nil {
				t.Fatalf("reference parse of index %q: %v", i, err)
			}
			idx = append(idx, int32(n-1))
			vals = append(vals, num(v))
		}
		n, err := linalg.SortDedup(idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, data.NewSparseRow(num(fields[0]), idx[:n], vals[:n]))
	}
	return recs, rows
}

// checkRead reads text and holds the result to the reference: the same rows
// bit for bit, Raw the file's trimmed records, and ParseMatrix over the
// file's lines the same again.
func checkRead(t *testing.T, text string, f data.Format) *data.Dataset {
	t.Helper()
	recs, rows := refRecords(t, text, f)
	m, err := data.ReadMatrix(strings.NewReader(text), f)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := data.ParseMatrix(strings.Split(text, "\n"), f)
	if err != nil {
		t.Fatal(err)
	}
	ds := data.FromMatrix("t", data.TaskSVM, m)
	if !slices.Equal(ds.Raw, recs) {
		t.Fatalf("Raw is not the file's records:\n got %.200q\nwant %.200q", ds.Raw, recs)
	}
	if pds := data.FromMatrix("t", data.TaskSVM, pm); !slices.Equal(pds.Raw, recs) {
		t.Fatalf("ParseMatrix Raw is not the given lines' records")
	}
	if m.NumRows() != len(rows) || pm.NumRows() != len(rows) {
		t.Fatalf("read %d / parsed %d rows, want %d", m.NumRows(), pm.NumRows(), len(rows))
	}
	for i, want := range rows {
		if !data.RowsEqual(m.Row(i), want) || !data.RowsEqual(pm.Row(i), want) {
			t.Fatalf("row %d (%.80q): got %v / %v, want %v", i, recs[i], m.Row(i), pm.Row(i), want)
		}
	}
	return ds
}

func TestReadMatrixKeepsFileRecords(t *testing.T) {
	t.Run("untidy text", func(t *testing.T) {
		// CRLF endings, padding, blank and comment lines, no final newline;
		// signs, exponents and trailing zeros a renderer would not write;
		// unsorted and repeated LIBSVM indices.
		checkRead(t, "\r\n  # header\r\n+1 3:1.50 1:3e0 3:0.25\r\n\r\n\t-1   2:-0\t7:1E-3  \r\n# mid\n1\n   -1 5:.5 4:5.", data.FormatLIBSVM)
		checkRead(t, "\n# header\r\n+1,1.50,3e0\r\n\r\n -1 , -0 ,\t1E-3\r\n#c\n1,.5,5.", data.FormatCSV)
		ds := checkRead(t, "", data.FormatCSV)
		if ds.N() != 0 || !ds.Mat.IsDense() {
			t.Fatalf("empty CSV input: %d rows, dense=%v", ds.N(), ds.Mat.IsDense())
		}
		if ds := checkRead(t, "\n# only\n", data.FormatLIBSVM); ds.N() != 0 || ds.Mat.IsDense() {
			t.Fatalf("empty LIBSVM input: %d rows, dense=%v", ds.N(), ds.Mat.IsDense())
		}
	})

	t.Run("block boundaries", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		var sb strings.Builder
		straddles := 0
		record := func(nnz int) {
			start := sb.Len()
			sb.WriteString(strconv.Itoa(1 - 2*rng.Intn(2)))
			for k := 0; k < nnz; k++ {
				fmt.Fprintf(&sb, " %d:%g", 1+rng.Intn(5000), float64(rng.Intn(2000)-1000)/64)
			}
			if start/data.TextBlockBytes != sb.Len()/data.TextBlockBytes {
				straddles++
			}
			sb.WriteString("\n")
		}
		for sb.Len() < 2*data.TextBlockBytes+1000 {
			record(rng.Intn(40))
		}
		record(200_000) // a record longer than a block
		for i := 0; i < 100; i++ {
			record(rng.Intn(40))
		}
		if straddles < 3 {
			t.Fatalf("only %d records straddle a block boundary", straddles)
		}
		checkRead(t, sb.String(), data.FormatLIBSVM)
		checkRead(t, strings.TrimSuffix(sb.String(), "\n"), data.FormatLIBSVM)
	})

	t.Run("record cap", func(t *testing.T) {
		long := "1 " + strings.Repeat("7:1 ", data.MaxRecordBytes/4)
		for _, text := range []string{long, "1 1:1\n" + long + "\n1 2:2\n"} {
			if _, err := data.ReadMatrix(strings.NewReader(text), data.FormatLIBSVM); !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("record of %d bytes: err = %v, want bufio.ErrTooLong", len(long), err)
			}
		}
		// The longest record that fits: whole features, then padding.
		fits := long[:2+(data.MaxRecordBytes-3)/4*4]
		fits += strings.Repeat(" ", data.MaxRecordBytes-1-len(fits))
		m, err := data.ReadMatrix(strings.NewReader("1 1:1\n"+fits+"\n"), data.FormatLIBSVM)
		if err != nil || m.NumRows() != 2 || m.RowNNZ(1) != 1 {
			t.Fatalf("record of %d bytes: err = %v", len(fits), err)
		}
	})

	t.Run("canonical files", func(t *testing.T) {
		// Files as the generators and bench/ write them — Row.String and
		// Row.CSVString lines — load to exactly what rendering the parsed
		// matrix back gives, which is how Raw was built before it adopted the
		// file's text: same lines, fingerprint, byte size and partitions.
		rng := rand.New(rand.NewSource(5))
		for _, f := range []data.Format{data.FormatCSV, data.FormatLIBSVM} {
			var lines []string
			for i := 0; i < 3000; i++ {
				vals := make([]float64, 40)
				for k := range vals {
					if f == data.FormatCSV || rng.Intn(4) == 0 {
						vals[k] = float64(rng.Intn(20001)-10000) / 1e4
					}
				}
				r := data.NewDenseRow(float64(1-2*rng.Intn(2)), vals)
				if f == data.FormatCSV {
					lines = append(lines, r.CSVString())
				} else {
					lines = append(lines, r.String())
				}
			}
			ds := checkRead(t, strings.Join(lines, "\n")+"\n", f)
			rendered := data.FromMatrix("t", data.TaskSVM, ds.Mat.Slice(0, ds.N()).Compact())
			if !slices.Equal(ds.Raw, rendered.Raw) {
				t.Fatalf("%v: adopted Raw differs from the rendered lines", f)
			}
			if ds.Fingerprint() != rendered.Fingerprint() || ds.SizeBytes() != rendered.SizeBytes() {
				t.Fatalf("%v: fingerprint %s / %d bytes, rendered %s / %d", f, ds.Fingerprint(), ds.SizeBytes(), rendered.Fingerprint(), rendered.SizeBytes())
			}
			layout := storage.Layout{PartitionBytes: 64 << 10, PageBytes: 1 << 10}
			a, err := storage.Build(ds, layout)
			if err != nil {
				t.Fatal(err)
			}
			b, err := storage.Build(rendered, layout)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Partitions) < 2 || !reflect.DeepEqual(a.Partitions, b.Partitions) {
				t.Fatalf("%v: partitions differ: %v vs %v", f, a.Partitions, b.Partitions)
			}
		}
	})

	t.Run("views", func(t *testing.T) {
		ds := checkRead(t, "1 1:1\n\n-1 2:2\n# c\n1 3:3\n-1 4:4\n1 5:5\n", data.FormatLIBSVM)
		for name, c := range map[string]struct {
			view *data.Matrix
			rows []int
		}{
			"slice":           {ds.Mat.Slice(1, 4), []int{1, 2, 3}},
			"gather":          {ds.Mat.Gather([]int{4, 0, 0, 2}), []int{4, 0, 0, 2}},
			"gather of slice": {ds.Mat.Slice(1, 5).Gather([]int{3, 0}), []int{4, 1}},
		} {
			sub := data.FromMatrix("v", data.TaskSVM, c.view)
			for k, i := range c.rows {
				if sub.Raw[k] != ds.Raw[i] || !data.RowsEqual(sub.Row(k), ds.Row(i)) {
					t.Fatalf("%s: row %d is %q, want the file's record %q", name, k, sub.Raw[k], ds.Raw[i])
				}
			}
		}
		// A packed copy carries no text: its lines are rendered.
		packed := data.FromMatrix("p", data.TaskSVM, ds.Mat.Gather([]int{2, 1}).Compact())
		if want := []string{"1 3:3", "-1 2:2"}; !slices.Equal(packed.Raw, want) {
			t.Fatalf("packed copy Raw = %q, want %q", packed.Raw, want)
		}
	})
}
