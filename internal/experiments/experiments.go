// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8 plus Appendix E) on the simulated cluster. Each
// experiment is a function taking a Config and returning a Report whose rows
// carry the same quantities the paper plots; cmd/ml4all-bench prints them, and
// its `-exp all -quick` output is the committed EXPERIMENTS.txt that CI diffs.
//
// Scale: experiments default to Scale 256 — a 1/256 cut of the paper's
// dataset bytes paired with a cluster whose cache and partitions shrink by
// the same factor, which preserves every fits-in-partition / fits-in-cache
// relationship the figures depend on while keeping the whole suite
// laptop-fast. Scale 64 (the repository's reference scale) yields simulated
// times of the same magnitude the paper reports.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"ml4all/internal/baselines"
	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// DefaultScale is the harness's dataset-scale divisor.
const DefaultScale = 256

// Config parameterizes one experiment run.
type Config struct {
	// Scale divides the paper's dataset cardinalities; 0 means
	// DefaultScale. The cluster's byte capacities shrink by the same
	// factor.
	Scale int
	// Quick restricts sweeps to a representative subset, so the full suite
	// stays minutes, not hours.
	Quick bool
	// Seed drives all sampling; 0 means 1.
	Seed int64
	// Workers sizes the engine's real worker pool (0 = GOMAXPROCS, 1 =
	// serial). Results and simulated times are identical for every value;
	// only the wall-clock the harness reports changes.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClusterFor returns the simulated cluster matched to a dataset scale: byte
// capacities shrink with the data so cache/partition relationships hold.
func ClusterFor(scale int) cluster.Config {
	cfg := cluster.Default()
	cfg.CacheBytes = cfg.CacheBytes * int64(synth.DefaultScale) / int64(scale)
	return cfg
}

// LayoutFor returns the storage layout matched to a dataset scale.
func LayoutFor(scale int) storage.Layout {
	l := storage.DefaultLayout()
	l.PartitionBytes = l.PartitionBytes * int64(synth.DefaultScale) / int64(scale)
	if l.PartitionBytes < 4*l.PageBytes {
		l.PartitionBytes = 4 * l.PageBytes
	}
	return l
}

// SystemMLFor scales the SystemML behaviour constants' byte thresholds.
func SystemMLFor(scale int) baselines.SystemMLConfig {
	sc := baselines.DefaultSystemML()
	f := int64(synth.DefaultScale) / int64(scale)
	if f < 1 {
		f = 1
	}
	sc.LocalBytes *= f
	sc.OOMDenseBytes *= f
	if scale > synth.DefaultScale {
		div := int64(scale) / int64(synth.DefaultScale)
		sc.LocalBytes = baselines.DefaultSystemML().LocalBytes / div
		sc.OOMDenseBytes = baselines.DefaultSystemML().OOMDenseBytes / div
	}
	return sc
}

// BismarckFor scales the Bismarck constraint constants.
func BismarckFor(scale int) baselines.BismarckConfig {
	bc := baselines.DefaultBismarck()
	if scale > synth.DefaultScale {
		div := float64(scale) / float64(synth.DefaultScale)
		bc.NodeBytes = int64(float64(bc.NodeBytes) / div)
		bc.FeatureWork /= div
	}
	return bc
}

// EstimatorFor returns the Section 8 estimator settings: speculation
// tolerance 0.1, a 10-second budget and 1000-point samples.
func EstimatorFor(seed int64) estimator.Config {
	return estimator.Config{SampleSize: 1000, SpecTolerance: 0.1, TimeBudget: 10, Seed: seed}
}

// LambdaFor returns the experiment suite's regularization per task: logistic
// rows use a small L2 (the real datasets are not separable and the paper
// always trains with a regularizer); the separable SVM suite and regression
// run unregularized, which is what lets stochastic hinge plans reach
// exact-zero deltas the way the paper's Table 4 SGD rows do.
func LambdaFor(task data.TaskKind) float64 {
	if task == data.TaskLogisticRegression {
		return 0.01
	}
	return 0
}

// ParamsFor assembles the standard Params for a dataset under the paper's
// Section 8 settings (step 1/sqrt(i), batch 1000, L1 convergence).
func ParamsFor(ds *data.Dataset, tolerance float64, maxIter int) gd.Params {
	return gd.Params{
		Task:      ds.Task,
		Format:    ds.Format,
		Lambda:    LambdaFor(ds.Task),
		Tolerance: tolerance,
		MaxIter:   maxIter,
	}
}

// --- dataset cache ---

var (
	dsMu    sync.Mutex
	dsCache = map[string]*data.Dataset{}
)

// Dataset returns the named Table 2 stand-in at the config's scale,
// memoized per process (generation of the larger sets costs seconds).
func (c Config) Dataset(name string) (*data.Dataset, error) {
	c = c.withDefaults()
	key := fmt.Sprintf("%s@%d", name, c.Scale)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds, nil
	}
	spec, err := synth.ByName(name, c.Scale)
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		return nil, err
	}
	dsCache[key] = ds
	return ds, nil
}

// GeneratedDataset memoizes an arbitrary spec (the SVM A/B sweeps).
func (c Config) GeneratedDataset(spec synth.Spec) (*data.Dataset, error) {
	key := fmt.Sprintf("%s/%d/%d@spec", spec.Name, spec.N, spec.D)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds, nil
	}
	ds, err := synth.Generate(spec)
	if err != nil {
		return nil, err
	}
	dsCache[key] = ds
	return ds, nil
}

// --- reporting ---

// Report is one experiment's tabular output plus free-form notes.
type Report struct {
	ID     string // "fig8", "table4", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, stringifying each cell.
func (r *Report) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case cluster.Seconds:
			row[i] = fmt.Sprintf("%.1f", float64(v))
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Note records a free-form observation rendered under the table.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the report as an aligned text table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
