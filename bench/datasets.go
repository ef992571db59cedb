package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ml4all/internal/data"
	"ml4all/internal/synth"
)

// Every dataset below is generated with Gap: 0 on purpose. synth's gap
// rejection sampling redraws a point until its margin clears the band, which
// at the registry's Gap 2.0 throws away ~95 % of the draws: generating svm1
// or higgs costs 9-38 s on this host, more than a whole run may take. The
// shapes keep what the layers under test depend on — rows, width, density,
// text size — and leave out separability, which only convergence depends on;
// the one place convergence is measured (quality.go) explains its own data.

// bigPair is the data of cold-auto and batch-train: one dense CSV and one
// sparse LIBSVM file, both 40 000 rows. Dense 40 000×100 is ~33 MB of text,
// large enough that data.ReadMatrix takes ~1 s and a full-batch pass over the
// arena (32 MB of float64) does not fit any cache level; sparse 40 000×2 000
// at 2 % (~20 MB of text, 1.6 M stored values) drives the CSR kernels and the
// LIBSVM parser with a model 20× wider than the dense one.
func bigPair(seed int64) []synth.Spec {
	return []synth.Spec{
		{Name: "dense", Task: data.TaskLogisticRegression, N: 40000, D: 100, Density: 1, Noise: 0.1, Margin: 1, Seed: seed*16 + 1},
		{Name: "sparse", Task: data.TaskLogisticRegression, N: 40000, D: 2000, Density: 0.02, Noise: 0.1, Margin: 1, Seed: seed*16 + 2},
	}
}

// sweepTriple is the data of plan-sweep: three 8 000-row datasets, one per
// task and layout (SVM dense, logistic sparse, least-squares dense), with
// narrow rows on purpose. A row's gradient costs in proportion to its stored
// values, while what plan-sweep is there to show — drawing the row, the
// simulator's accounting, the update and the convergence check — does not, so
// rows are kept to 28 values (higgs' width) or 10 stored values of 1 000 (a
// model so wide that update and convergence check, both O(width), are most of
// an SGD step): with the 100-wide rows of the first sizing, 84 % of the
// sweep's processor time was the gradient kernels.
func sweepTriple(seed int64) []synth.Spec {
	return []synth.Spec{
		{Name: "svm-dense", Task: data.TaskSVM, N: 8000, D: 28, Density: 1, Margin: 3, Seed: seed*16 + 3},
		{Name: "logr-sparse", Task: data.TaskLogisticRegression, N: 8000, D: 1000, Density: 0.01, Noise: 0.1, Margin: 1, Seed: seed*16 + 4},
		{Name: "linr-dense", Task: data.TaskLinearRegression, N: 8000, D: 28, Density: 1, Noise: 0.05, Margin: 2, Seed: seed*16 + 5},
	}
}

// serveSet is the data of serve-mixed's training jobs: dense 16 000×128, so a
// pinned-BGD job of 150 iterations holds both cores for ~0.4 s — long enough
// to cross several 100 ms checkpoint intervals, short enough that a phase
// completes a dozen jobs. 128 columns is BENCH_7's serving dimension.
func serveSet(seed int64) []synth.Spec {
	return []synth.Spec{
		{Name: "jobs", Task: data.TaskLogisticRegression, N: 16000, D: 128, Density: 1, Noise: 0.1, Margin: 1, Seed: seed*16 + 6},
	}
}

// dataFile is one generated input as the program under test sees it.
type dataFile struct {
	Name  string
	Path  string
	Task  data.TaskKind
	Rows  int
	Dim   int
	Bytes int64
}

// generateFiles materializes specs as text files under dir, up to procs at a
// time, and returns them in spec order. Dense datasets are written as CSV
// (label first), sparse ones as LIBSVM — the text synth already renders into
// Dataset.Raw, so reading the file back reproduces the generated matrix.
func generateFiles(dir string, specs []synth.Spec, procs int) ([]dataFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := make([]dataFile, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			files[i], errs[i] = generateFile(dir, sp)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func generateFile(dir string, sp synth.Spec) (dataFile, error) {
	ds, err := synth.Generate(sp)
	if err != nil {
		return dataFile{}, err
	}
	ext := ".libsvm"
	if ds.Format == data.FormatCSV {
		ext = ".csv"
	}
	path := filepath.Join(dir, sp.Name+ext)
	f, err := os.Create(path)
	if err != nil {
		return dataFile{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var n int64
	for _, line := range ds.Raw {
		bw.WriteString(line)
		bw.WriteByte('\n')
		n += int64(len(line)) + 1
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return dataFile{}, fmt.Errorf("bench: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return dataFile{}, fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return dataFile{Name: sp.Name, Path: path, Task: sp.Task, Rows: ds.N(), Dim: ds.NumFeatures, Bytes: n}, nil
}
