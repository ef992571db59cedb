package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Dataset is an in-memory handle to a parsed dataset plus its descriptive
// metadata. In the real ML4all the raw bytes live in HDFS and parsing happens
// inside the plan's Transform operator; here the Dataset carries both the raw
// text records (for plans that transform lazily) and the parsed columnar arena
// so that the simulator can charge parse CPU where the plan actually performs
// it.
type Dataset struct {
	Name   string
	Task   TaskKind
	Format Format

	// Raw holds the unparsed text records, one per data unit: the trimmed
	// lines of the file a loaded dataset was read from, or canonical
	// renderings for generated data (see FromMatrix). Plans with lazy
	// transformation read from Raw and parse on demand, and its byte lengths
	// are what the storage layer partitions and the simulator charges.
	Raw []string

	// Mat holds the parsed data in columnar arena form, index-aligned with
	// Raw. Split/Sample subsets share the arena through zero-copy views.
	Mat *Matrix

	// NumFeatures is the model dimensionality d (max feature index + 1,
	// or as declared by the generator).
	NumFeatures int

	// Density is the fraction of non-zero values (1.0 for dense data).
	Density float64
}

// TaskKind is the supervised learning task a dataset is meant for.
type TaskKind int

// Supported tasks, mirroring the paper's Table 3.
const (
	TaskSVM TaskKind = iota
	TaskLogisticRegression
	TaskLinearRegression
)

// String returns the task name as used in the paper's tables.
func (t TaskKind) String() string {
	switch t {
	case TaskSVM:
		return "SVM"
	case TaskLogisticRegression:
		return "LogR"
	case TaskLinearRegression:
		return "LinR"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(t))
	}
}

// FromMatrix builds a Dataset over a columnar arena. When the arena was
// parsed from text (ReadMatrix, ParseMatrix), Raw adopts the records it was
// parsed from — the file's own lines, not copied. An arena that carries no
// text (a generator's, a Compact copy) has its lines rendered instead so
// lazy-transform plans have something to parse: dense matrices as CSV (the
// paper's dense convention), sparse ones as LIBSVM.
func FromMatrix(name string, task TaskKind, m *Matrix) *Dataset {
	ds := &Dataset{Name: name, Task: task, Format: FormatLIBSVM, Mat: m}
	if m.IsDense() {
		ds.Format = FormatCSV
	}
	ds.Raw = make([]string, m.NumRows())
	var buf []byte
	for i := range ds.Raw {
		switch {
		case m.text != nil:
			ds.Raw[i] = m.text[m.baseRow(i)]
		case m.IsDense():
			buf = m.Row(i).appendCSV(buf[:0])
			ds.Raw[i] = string(buf)
		default:
			buf = m.Row(i).appendLIBSVM(buf[:0])
			ds.Raw[i] = string(buf)
		}
	}
	ds.NumFeatures = m.MaxIndex() + 1
	ds.computeDensity()
	return ds
}

// computeDensity refreshes Density from the arena and NumFeatures.
func (ds *Dataset) computeDensity() {
	ds.Density = 0
	if total := ds.N() * ds.NumFeatures; total > 0 {
		ds.Density = float64(ds.Mat.NNZ()) / float64(total)
	}
}

// N returns the number of data points.
func (ds *Dataset) N() int {
	if ds.Mat == nil {
		return 0
	}
	return ds.Mat.NumRows()
}

// Row returns the zero-copy view of data unit i.
func (ds *Dataset) Row(i int) Row { return ds.Mat.Row(i) }

// Rows materializes all row views (see Matrix.Rows — cold paths only).
func (ds *Dataset) Rows() []Row {
	if ds.Mat == nil {
		return nil
	}
	return ds.Mat.Rows()
}

// SizeBytes returns the approximate on-disk size of the dataset in bytes
// (raw text length), which is what the storage layer partitions.
func (ds *Dataset) SizeBytes() int64 {
	var b int64
	for i := range ds.Raw {
		b += ds.UnitBytes(i)
	}
	return b
}

// UnitBytes returns the bytes record i occupies on disk: its text plus the
// newline. It is the one definition the storage layer partitions by and the
// simulator charges I/O and parsing on.
func (ds *Dataset) UnitBytes(i int) int64 { return int64(len(ds.Raw[i])) + 1 }

// Validate checks internal consistency and returns a descriptive error for
// the first violation found.
func (ds *Dataset) Validate() error {
	if len(ds.Raw) != ds.N() {
		return fmt.Errorf("data: dataset %s has %d raw lines but %d rows", ds.Name, len(ds.Raw), ds.N())
	}
	for i := 0; i < ds.N(); i++ {
		if mi := ds.Mat.Row(i).MaxIndex(); mi >= ds.NumFeatures {
			return fmt.Errorf("data: dataset %s unit %d has feature index %d >= NumFeatures %d",
				ds.Name, i, mi, ds.NumFeatures)
		}
	}
	return nil
}

// subset builds a Dataset over a zero-copy view of the given row indices:
// the arena is shared with the parent and the raw lines are shared string
// headers — no row data is copied.
func (ds *Dataset) subset(name string, rows []int) *Dataset {
	sub := &Dataset{Name: name, Task: ds.Task, Format: ds.Format, Mat: ds.Mat.Gather(rows)}
	sub.Raw = make([]string, len(rows))
	for k, i := range rows {
		sub.Raw[k] = ds.Raw[i]
	}
	// Density is relative to the subset's own max feature index (matching
	// what rebuilding the subset from scratch reports); the dimensionality
	// is then raised to the parent's so a subset that lost the highest-index
	// feature stays consistent with it.
	sub.NumFeatures = sub.Mat.MaxIndex() + 1
	sub.computeDensity()
	if ds.NumFeatures > sub.NumFeatures {
		sub.NumFeatures = ds.NumFeatures
	}
	return sub
}

// Split partitions the dataset into train and test subsets, assigning each
// point to train with probability trainFrac using the given seed. Both sides
// are zero-copy index views over the parent's arena. The paper uses an 80/20
// split when no test set is published.
func (ds *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(seed))
	var trainRows, testRows []int
	for i := 0; i < ds.N(); i++ {
		if rng.Float64() < trainFrac {
			trainRows = append(trainRows, i)
		} else {
			testRows = append(testRows, i)
		}
	}
	return ds.subset(ds.Name+"-train", trainRows), ds.subset(ds.Name+"-test", testRows)
}

// Sample returns m units drawn uniformly without replacement (or all units if
// m >= N), as a zero-copy view over the dataset's arena, using the given
// seed. The iterations estimator speculates on such a sample (Algorithm 1,
// line 1).
func (ds *Dataset) Sample(m int, seed int64) *Dataset {
	if m >= ds.N() {
		m = ds.N()
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(ds.N())
	return ds.subset(ds.Name+"-sample", perm[:m])
}

// Fingerprint returns a deterministic 64-bit content fingerprint of the
// dataset as a 16-hex-digit string: FNV-1a over the identity metadata (name,
// point count, dimensionality, byte size, density bits) and up to 64 raw
// lines sampled at evenly spaced indices. Sampling keeps it O(1)-ish on huge
// datasets while still catching content changes anywhere but in the skipped
// lines; two datasets with equal fingerprints are the same dataset for the
// run ledger's purposes (warm-start matching), not cryptographically equal.
func (ds *Dataset) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(ds.Name))
	writeInt(int64(ds.Task))
	writeInt(int64(ds.N()))
	writeInt(int64(ds.NumFeatures))
	writeInt(ds.SizeBytes())
	writeInt(int64(math.Float64bits(ds.Density)))
	n := len(ds.Raw)
	samples := 64
	if n < samples {
		samples = n
	}
	for k := 0; k < samples; k++ {
		i := k * n / samples
		writeInt(int64(i))
		h.Write([]byte(ds.Raw[i]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Stats summarizes a dataset in the shape of the paper's Table 2.
type Stats struct {
	Name     string
	Task     TaskKind
	Points   int
	Features int
	Bytes    int64
	Density  float64
}

// Stats returns the dataset's Table 2-style summary row.
func (ds *Dataset) Stats() Stats {
	return Stats{
		Name:     ds.Name,
		Task:     ds.Task,
		Points:   ds.N(),
		Features: ds.NumFeatures,
		Bytes:    ds.SizeBytes(),
		Density:  ds.Density,
	}
}
