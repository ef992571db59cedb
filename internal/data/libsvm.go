package data

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"ml4all/internal/linalg"
)

// asciiSpace reports whether c is an ASCII whitespace byte (what
// strings.Fields separates on for ASCII input; LIBSVM text is ASCII).
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// nextField returns the [start, end) bounds of the next whitespace-separated
// field of s at or after pos, or ok=false when none remains. It allocates
// nothing — the arena bulk-load path tokenizes every line in place.
func nextField(s string, pos int) (start, end int, ok bool) {
	for pos < len(s) && asciiSpace(s[pos]) {
		pos++
	}
	if pos >= len(s) {
		return 0, 0, false
	}
	start = pos
	for pos < len(s) && !asciiSpace(s[pos]) {
		pos++
	}
	return start, pos, true
}

// parseLIBSVMInto parses one LIBSVM line, appending the features to idx/vals
// (returned re-sliced, so callers can reuse scratch across lines — the arena
// build path performs no per-row allocation, tokenizing in place). Indices in
// the text are 1-based (the LIBSVM convention) and stored 0-based, unsorted
// and undeduplicated — normalization (SortDedup) happens where the row is
// materialized.
func parseLIBSVMInto(line string, idx []int32, vals []float64) (label float64, oidx []int32, ovals []float64, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' {
		return 0, idx, vals, false, nil
	}
	start, end, _ := nextField(line, 0) // non-empty after TrimSpace
	label, err = parseFloat(line[start:end])
	if err != nil {
		return 0, idx, vals, false, fmt.Errorf("data: bad LIBSVM label %q: %w", line[start:end], err)
	}
	oidx, ovals, err = parseLIBSVMFeatures(line, end, idx, vals)
	if err != nil {
		return 0, oidx, ovals, false, err
	}
	return label, oidx, ovals, true, nil
}

// parseLIBSVMFeatures parses the idx:val fields of line at or after pos,
// appending to idx/vals — the shared back half of parseLIBSVMInto and the
// label-less prediction-request parse (which starts at pos 0 with no label
// field to skip, instead of allocating a synthetic "0 "-prefixed line).
func parseLIBSVMFeatures(line string, pos int, idx []int32, vals []float64) (oidx []int32, ovals []float64, err error) {
	for {
		for pos < len(line) && asciiSpace(line[pos]) {
			pos++
		}
		if pos == len(line) {
			return idx, vals, nil
		}
		// The common field — a plain decimal index in range, a colon, a value
		// on scanFloat's fast path — converts in the scan that delimits it.
		i, p := 0, pos
		for ; p < len(line) && p-pos < 9 && line[p]-'0' <= 9; p++ {
			i = i*10 + int(line[p]-'0')
		}
		if i >= 1 && p < len(line) && line[p] == ':' {
			if v, end, ok := scanFloat(line, p+1); ok && (end == len(line) || asciiSpace(line[end])) {
				idx = append(idx, int32(i-1))
				vals = append(vals, v)
				pos = end
				continue
			}
		}
		// Every other field, the malformed ones included, takes the general
		// route, which also words the errors.
		start, end, _ := nextField(line, pos)
		pos = end
		f := line[start:end]
		colon := strings.IndexByte(f, ':')
		if colon <= 0 {
			return idx, vals, fmt.Errorf("data: bad LIBSVM feature %q", f)
		}
		i, err := strconv.Atoi(f[:colon])
		if err != nil {
			return idx, vals, fmt.Errorf("data: bad LIBSVM index %q: %w", f[:colon], err)
		}
		// The columnar arena stores indices as int32; reject anything the
		// layout cannot hold instead of silently wrapping.
		if i < 1 || i-1 > math.MaxInt32 {
			return idx, vals, fmt.Errorf("data: LIBSVM index %d out of range (must be in [1, 2^31])", i)
		}
		v, err := parseFloat(f[colon+1:])
		if err != nil {
			return idx, vals, fmt.Errorf("data: bad LIBSVM value %q: %w", f[colon+1:], err)
		}
		idx = append(idx, int32(i-1))
		vals = append(vals, v)
	}
}

// ParseLIBSVMLine parses one line of LIBSVM text: "label idx:val idx:val ...".
// Empty lines and lines starting with '#' yield ok=false with no error.
func ParseLIBSVMLine(line string) (r Row, ok bool, err error) {
	label, idx, vals, ok, err := parseLIBSVMInto(line, nil, nil)
	if err != nil || !ok {
		return Row{}, false, err
	}
	n, err := linalg.SortDedup(idx, vals)
	if err != nil {
		return Row{}, false, err
	}
	return NewSparseRow(label, idx[:n], vals[:n]), true, nil
}

// parseCSVInto parses one dense comma-separated line, appending the features
// to vals (returned re-sliced for scratch reuse). labelCol selects the
// 0-based column holding the label; all remaining columns are features in
// order. labelCol -1 means no label column — every field is a feature and the
// returned label is 0 (the prediction-request form, see ParsePredictCSV).
func parseCSVInto(line string, labelCol int, vals []float64) (label float64, ovals []float64, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' {
		return 0, vals, false, nil
	}
	cols := strings.Count(line, ",") + 1
	if labelCol < -1 || labelCol >= cols {
		return 0, vals, false, fmt.Errorf("data: label column %d out of range for %d columns", labelCol, cols)
	}
	// Walk the comma-separated fields in place — no []string materialized.
	pos := 0
	for i := 0; i < cols; i++ {
		// The common field — blanks, a number on scanFloat's fast path,
		// blanks — converts in the scan that finds its comma.
		p := pos
		for p < len(line) && asciiSpace(line[p]) {
			p++
		}
		v, end, fast := scanFloat(line, p)
		for fast && end < len(line) && asciiSpace(line[end]) {
			end++
		}
		if !fast || (end < len(line) && line[end] != ',') {
			// Every other field, the malformed ones included, takes the
			// general route, which also words the errors.
			end = len(line)
			if c := strings.IndexByte(line[pos:], ','); c >= 0 {
				end = pos + c
			}
			f := strings.TrimSpace(line[pos:end])
			if v, err = parseFloat(f); err != nil {
				if i == labelCol {
					return 0, vals, false, fmt.Errorf("data: bad CSV label %q: %w", f, err)
				}
				return 0, vals, false, fmt.Errorf("data: bad CSV value %q: %w", f, err)
			}
		}
		if i == labelCol {
			label = v
		} else {
			vals = append(vals, v)
		}
		pos = end + 1
	}
	return label, vals, true, nil
}

// ParseCSVLine parses one dense comma-separated line. labelCol selects the
// 0-based column holding the label; all remaining columns are features in
// order. This matches the paper's default of "first column as the label and
// the remaining columns as the features".
func ParseCSVLine(line string, labelCol int) (r Row, ok bool, err error) {
	label, vals, ok, err := parseCSVInto(line, labelCol, nil)
	if err != nil || !ok {
		return Row{}, false, err
	}
	return NewDenseRow(label, vals), true, nil
}

// Format identifies an input text format.
type Format int

// Supported input formats.
const (
	FormatLIBSVM Format = iota // sparse "label idx:val ..." lines
	FormatCSV                  // dense comma-separated lines, label in column 0
)

// String returns the format name.
func (f Format) String() string {
	switch f {
	case FormatLIBSVM:
		return "libsvm"
	case FormatCSV:
		return "csv"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseLine dispatches to the parser for f.
func (f Format) ParseLine(line string) (Row, bool, error) {
	switch f {
	case FormatLIBSVM:
		return ParseLIBSVMLine(line)
	case FormatCSV:
		return ParseCSVLine(line, 0)
	default:
		return Row{}, false, fmt.Errorf("data: unknown format %v", f)
	}
}

// MaxRecordBytes bounds one text record: an input line that reaches it fails
// the read with bufio.ErrTooLong.
const MaxRecordBytes = 1 << 24

// textBlockBytes is the size ReadMatrix cuts its input into. One buffer for
// the whole file reads as fast but is a single allocation the size of the
// file, which the concurrent collector overshoots on; blocks keep the peak
// resident size at the sum of the live bytes, and they are the unit the
// parse fans out over.
const textBlockBytes = 1 << 20

// readTextBlocks reads r to its end as strings of about blockBytes, each
// ending on a record boundary (a newline, or the end of the input); a record
// longer than a block gets a block grown to hold it. Each block is read into
// a buffer of its own and handed out as a string over that buffer, without a
// copy: only the partial record after the cut moves, to the start of the
// next buffer. The last block is copied into a string of its own size when
// it fills less than half its buffer, so a small file does not keep a whole
// block's buffer alive beside its records.
func readTextBlocks(r io.Reader, blockBytes int) ([]string, error) {
	var blocks []string
	buf := make([]byte, blockBytes)
	n := 0 // buf[:n] is text read but not yet cut into a block
	for {
		got, err := io.ReadFull(r, buf[n:])
		n += got
		eof := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return nil, err
		}
		if eof {
			switch {
			case n == 0:
			case 2*n < len(buf):
				blocks = append(blocks, string(buf[:n]))
			default:
				blocks = append(blocks, unsafe.String(&buf[0], n))
			}
			return blocks, nil
		}
		cut := bytes.LastIndexByte(buf[:n], '\n') + 1
		if cut == 0 { // buf is full of one record's beginning
			if len(buf) >= MaxRecordBytes {
				return nil, bufio.ErrTooLong
			}
			buf = append(buf, make([]byte, min(len(buf), MaxRecordBytes-len(buf)))...)
			continue
		}
		// Nothing writes buf[:cut] after this: the rest of the buffer is
		// copied out below and buf is dropped, so the string stays immutable.
		blocks = append(blocks, unsafe.String(&buf[0], cut))
		size := blockBytes
		if n-cut >= blockBytes { // the rest of a long record keeps the grown size
			size = len(buf)
		}
		next := make([]byte, size)
		n = copy(next, buf[cut:n])
		buf = next
	}
}

// matrixParser is the record loop ReadMatrix and ParseMatrix share: each
// record is trimmed, parsed once into reused scratch and appended to the
// arena, and the trimmed text is kept beside the row it became.
type matrixParser struct {
	f      Format
	rows   int // capacity hint for a builder of its own; zero is fine
	b      *MatrixBuilder
	text   []string
	idx    []int32
	vals   []float64
	lineNo int // lines seen, blank and comment lines included
}

// newBuilder sizes the arena from the rows hint; stride is the feature count
// of the first CSV record, which fixes the dense layout.
func (p *matrixParser) newBuilder(stride int) *MatrixBuilder {
	if p.f == FormatCSV {
		return NewDenseMatrixBuilder(p.rows, stride)
	}
	return NewMatrixBuilder(p.rows, 0)
}

// record parses one input line (blank and comment lines count as lines but
// add no row). Its error is bare: the caller places it with lineError, since
// a block's parser numbers only the block's own lines.
func (p *matrixParser) record(line string) error {
	p.lineNo++
	rec := strings.TrimSpace(line)
	var label float64
	var ok bool
	var err error
	if p.f == FormatLIBSVM {
		label, p.idx, p.vals, ok, err = parseLIBSVMInto(rec, p.idx[:0], p.vals[:0])
	} else {
		label, p.vals, ok, err = parseCSVInto(rec, 0, p.vals[:0])
	}
	if err == nil && ok {
		if p.b == nil {
			p.b = p.newBuilder(len(p.vals))
			p.text = make([]string, 0, p.rows)
		}
		if p.f == FormatLIBSVM {
			err = p.b.AppendSparse(label, p.idx, p.vals)
		} else {
			err = p.b.AppendDense(label, p.vals)
		}
		p.text = append(p.text, rec)
	}
	return err
}

// parse feeds every line of text to record, stopping at the first error.
func (p *matrixParser) parse(text string) error {
	for len(text) > 0 {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if err := p.record(line); err != nil {
			return err
		}
	}
	return nil
}

// lineError places a record's error at its 1-based line in the input.
func lineError(line int, err error) error {
	return fmt.Errorf("data: line %d: %w", line, err)
}

// matrix finalizes the arena; with no record seen it is an empty matrix of
// the format's layout.
func (p *matrixParser) matrix() *Matrix {
	if p.b == nil {
		p.b = p.newBuilder(0)
	}
	m := p.b.Build()
	m.text = p.text
	return m
}

// ParseMatrix parses every record of lines under format f straight into a
// columnar arena, in one serial pass: each line is parsed into reused scratch
// and appended — no intermediate per-row allocation. The matrix keeps the
// trimmed lines (sharing the callers' strings), which FromMatrix adopts as
// Raw. It is the serial reference the parallel ReadMatrix is held to, bit for
// bit; only tests call it.
//
// CSV input must be rectangular: the first record fixes the dense stride and
// a line with a different column count fails the parse (a ragged dataset
// would only panic later, in the engine, on the dimension mismatch).
func ParseMatrix(lines []string, f Format) (*Matrix, error) {
	if f != FormatLIBSVM && f != FormatCSV {
		return nil, fmt.Errorf("data: unknown format %v", f)
	}
	p := matrixParser{f: f, rows: len(lines)}
	for _, line := range lines {
		if err := p.record(line); err != nil {
			return nil, lineError(p.lineNo, err)
		}
	}
	return p.matrix(), nil
}

// ReadMatrix parses every record in r using format f into a columnar arena:
// the matrix ParseMatrix gives for r's lines, bit for bit. The input is read
// once, into newline-aligned text blocks, which are parsed on
// min(GOMAXPROCS, blocks) goroutines straight into one arena: each block
// gets a range of it sized from the block's line (and, for LIBSVM, colon)
// count, so no block's rows are ever copied from one arena into another. The
// records the matrix keeps are substrings of the blocks — the text is neither
// copied per line nor rendered back later (see FromMatrix).
//
// The fan-out keeps the serial parse's answers: the file's first CSV record
// fixes the dense stride before any block is parsed, and when several blocks
// fail, the lowest block's error is returned, at its line in the file.
func ReadMatrix(r io.Reader, f Format) (*Matrix, error) {
	return readMatrix(r, f, textBlockBytes)
}

// arenaPos is a position in the arena ReadMatrix parses into: a row and a
// value (for sparse data also an index) slot.
type arenaPos struct{ rows, vals int }

// readMatrix is ReadMatrix over blocks of about blockBytes.
func readMatrix(r io.Reader, f Format, blockBytes int) (*Matrix, error) {
	if f != FormatLIBSVM && f != FormatCSV {
		return nil, fmt.Errorf("data: unknown format %v", f)
	}
	blocks, err := readTextBlocks(r, blockBytes)
	if err != nil {
		return nil, err
	}
	stride := 0
	if f == FormatCSV {
		if stride, err = csvStride(blocks); err != nil {
			return nil, err
		}
	}
	// Bound each block's rows and values: a record is a line, and a LIBSVM
	// feature holds a colon. bounds[i] is where block i's range of the arena
	// starts; the bounds are exact on a file of records only, without
	// duplicate LIBSVM indices.
	bounds := make([]arenaPos, len(blocks)+1)
	for i, b := range blocks {
		rows := strings.Count(b, "\n")
		if b[len(b)-1] != '\n' { // blocks are never empty
			rows++
		}
		vals := stride * rows
		if f == FormatLIBSVM {
			vals = strings.Count(b, ":")
		}
		bounds[i+1] = arenaPos{bounds[i].rows + rows, bounds[i].vals + vals}
	}
	a := newArena(f, stride, bounds[len(blocks)])
	parts, err := parseBlocks(blocks, f, a, bounds)
	if err != nil {
		return nil, err
	}
	if a.closeUp(parts, bounds); a.n == 0 {
		return (&matrixParser{f: f}).matrix(), nil
	}
	return a, nil
}

// newArena allocates a matrix of the given size whose slices are all full
// length, for parseBlocks to fill range by range.
func newArena(f Format, stride int, size arenaPos) *Matrix {
	a := &Matrix{
		dense: f == FormatCSV, stride: stride,
		labels: make([]float64, size.rows),
		values: make([]float64, size.vals),
		text:   make([]string, size.rows),
	}
	if !a.dense {
		a.offsets = make([]int64, size.rows+1)
		a.indices = make([]int32, size.vals)
	}
	return a
}

// blockParser returns a parser that appends into a's range [lo, hi): each of
// its slices holds the arena up to lo and is capped at hi, so the builder
// appends exactly as if the blocks before had filled their ranges, and its
// CSR offsets come out absolute. It never reads below lo, and its offsets
// start one slot after lo's, so no two blocks write the same slot.
func blockParser(a *Matrix, f Format, lo, hi arenaPos) matrixParser {
	b := &MatrixBuilder{dense: a.dense, set: true}
	b.m = Matrix{dense: a.dense, stride: a.stride,
		labels: a.labels[:lo.rows:hi.rows], values: a.values[:lo.vals:hi.vals]}
	if !a.dense {
		b.m.indices = a.indices[:lo.vals:hi.vals]
		b.m.offsets = a.offsets[: lo.rows+1 : hi.rows+1]
	}
	return matrixParser{f: f, b: b, text: a.text[:lo.rows:hi.rows]}
}

// used returns the position p's parse reached in the arena, and panics if an
// append outgrew the block's bound, which would have moved it off the arena.
func (p *matrixParser) used(hi arenaPos) arenaPos {
	m := &p.b.m
	if cap(m.labels) != hi.rows || cap(p.text) != hi.rows || cap(m.values) != hi.vals ||
		(!m.dense && (cap(m.indices) != hi.vals || cap(m.offsets) != hi.rows+1)) {
		panic("data: a block outgrew its bound in the arena")
	}
	return arenaPos{len(m.labels), len(m.values)}
}

// closeUp moves every block's rows down onto the end of the block before's,
// in file order, so the arena holds them without gaps, and sizes it to what
// the parse kept. A block falls short of its bound on blank and comment
// lines and on duplicate LIBSVM indices; on a file without these no block
// moves.
func (a *Matrix) closeUp(parts []matrixParser, bounds []arenaPos) {
	var at arenaPos // where the next block's rows belong
	for i := range parts {
		lo, end := bounds[i], parts[i].used(bounds[i+1])
		rows, vals := end.rows-lo.rows, end.vals-lo.vals
		if at.vals != lo.vals {
			copy(a.values[at.vals:], a.values[lo.vals:end.vals])
			if !a.dense {
				copy(a.indices[at.vals:], a.indices[lo.vals:end.vals])
				shift := int64(lo.vals - at.vals)
				for r := lo.rows + 1; r <= end.rows; r++ {
					a.offsets[r] -= shift
				}
			}
		}
		if at.rows != lo.rows {
			copy(a.labels[at.rows:], a.labels[lo.rows:end.rows])
			copy(a.text[at.rows:], a.text[lo.rows:end.rows])
			if !a.dense {
				copy(a.offsets[at.rows+1:], a.offsets[lo.rows+1:end.rows+1])
			}
		}
		at.rows += rows
		at.vals += vals
	}
	a.n = at.rows
	a.labels, a.text, a.values = a.labels[:at.rows], a.text[:at.rows], a.values[:at.vals]
	if !a.dense {
		a.offsets, a.indices = a.offsets[:at.rows+1], a.indices[:at.vals]
	}
}

// parseBlocks parses every block on min(GOMAXPROCS, blocks) goroutines, block
// i into a's range [bounds[i], bounds[i+1]), and returns the parsers in file
// order. When blocks fail, the error is the lowest failing block's, at its
// line in the file.
func parseBlocks(blocks []string, f Format, a *Matrix, bounds []arenaPos) ([]matrixParser, error) {
	// Workers claim blocks in file order, so when a block fails every block
	// before it has been claimed, and a claimed block is always parsed to its
	// end: stopping after a failure skips only blocks after a failed one.
	parts := make([]matrixParser, len(blocks))
	errs := make([]error, len(blocks))
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(blocks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idx []int32 // scratch, handed from block to block
			var vals []float64
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				p := &parts[i]
				*p = blockParser(a, f, bounds[i], bounds[i+1])
				p.idx, p.vals = idx, vals
				if errs[i] = p.parse(blocks[i]); errs[i] != nil {
					stop.Store(true)
				}
				idx, vals, p.idx, p.vals = p.idx, p.vals, nil, nil
			}
		}()
	}
	wg.Wait()

	line := 0 // lines in the blocks before parts[i]
	for i := range parts {
		if errs[i] != nil {
			return nil, lineError(line+parts[i].lineNo, errs[i])
		}
		line += parts[i].lineNo
	}
	return parts, nil
}

// csvStride returns the feature count of the first record in blocks (0 when
// there is none). A first record that fails to parse is the file's first
// error, so it is returned at its line.
func csvStride(blocks []string) (int, error) {
	line := 0
	for _, b := range blocks {
		for len(b) > 0 {
			var rec string
			rec, b, _ = strings.Cut(b, "\n")
			line++
			_, vals, ok, err := parseCSVInto(rec, 0, nil)
			if err != nil {
				return 0, lineError(line, err)
			}
			if ok {
				return len(vals), nil
			}
		}
	}
	return 0, nil
}

// WriteMatrix writes every row of m to w in LIBSVM text form, one record per
// line.
func WriteMatrix(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.NumRows(); i++ {
		if _, err := bw.WriteString(m.Row(i).String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
