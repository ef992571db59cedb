// Package ml4all is the public face of the library: a cost-based optimizer
// for gradient-descent optimization, reproducing Kaoudi et al., SIGMOD 2017.
//
// A System holds the simulated cluster configuration and a catalog of
// datasets and models. Users either submit declarative queries:
//
//	sys := ml4all.NewSystem()
//	sys.RegisterDataset("train.txt", ds)
//	out, err := sys.Exec(`run classification on train.txt having epsilon 0.01, max iter 1000;`)
//
// or drive the optimizer programmatically:
//
//	dec, err := sys.Optimize(ds, gd.Params{Task: ds.Task, Tolerance: 0.01})
//	res, err := sys.Execute(ds, dec.Best.Plan)
//
// Training time is simulated cluster time (the substrate is a deterministic
// cluster simulator; see DESIGN.md); convergence, iteration counts and model
// accuracy are real.
package ml4all

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/fault"
	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/lang"
	"ml4all/internal/linalg"
	"ml4all/internal/metrics"
	"ml4all/internal/planner"
	"ml4all/internal/step"
	"ml4all/internal/storage"
)

// Re-exported aliases so callers need only this package for common use.
type (
	// Dataset is a parsed dataset handle.
	Dataset = data.Dataset
	// Params are the task-level training knobs.
	Params = gd.Params
	// Plan is one physical GD plan.
	Plan = gd.Plan
	// Decision is the optimizer's costed choice.
	Decision = planner.Decision
	// Result is one plan execution's outcome.
	Result = engine.Result
	// Report is a test-set evaluation.
	Report = metrics.Report
	// Seconds is simulated cluster time.
	Seconds = cluster.Seconds
	// AdaptiveConfig tunes mid-flight re-optimization (TrainAdaptive).
	AdaptiveConfig = planner.AdaptiveConfig
)

// AdaptiveResult is an adaptive training run's outcome: the engine result
// over all executed plans (PlanName chains them, e.g. "MGD-lazy-shuffle→BGD";
// Time includes the speculation overhead, like Train), the up-front optimizer
// decision it started from, and the controller's history.
type AdaptiveResult struct {
	Result   *Result
	Decision *Decision
	Refits   planner.History
}

// System is a configured ML4all instance: cluster + storage layout +
// estimator settings + catalogs.
type System struct {
	Cluster   cluster.Config
	Layout    storage.Layout
	Estimator estimator.Config

	// Workers sizes the engine's real worker pool for the numeric training
	// phases (Compute — including line-search loss passes — and eager
	// Transform); it also covers the optimizer's speculation runs unless
	// Estimator.Workers pins its own. Evaluate stays serial. 0 means
	// GOMAXPROCS; 1 forces serial execution. Training results are
	// bit-identical for every value — only wall-clock speed changes;
	// simulated cluster time is charged the same either way. See DESIGN.md.
	Workers int

	datasets map[string]*data.Dataset
	models   map[string]*Model
}

// NewSystem returns a System on the default simulated cluster.
func NewSystem() *System {
	return &System{
		Cluster:  cluster.Default(),
		Layout:   storage.DefaultLayout(),
		datasets: map[string]*data.Dataset{},
		models:   map[string]*Model{},
	}
}

// Model is a trained model plus its provenance.
type Model struct {
	Name       string
	Task       data.TaskKind
	Weights    linalg.Vector
	PlanName   string
	Iterations int
	TrainTime  Seconds
	Converged  bool
}

// RegisterDataset makes ds addressable by name/path in queries.
func (s *System) RegisterDataset(name string, ds *data.Dataset) {
	s.datasets[name] = ds
}

// Dataset returns a registered dataset.
func (s *System) Dataset(name string) (*data.Dataset, bool) {
	ds, ok := s.datasets[name]
	return ds, ok
}

// Model returns a trained model by query name.
func (s *System) Model(name string) (*Model, bool) {
	m, ok := s.models[name]
	return m, ok
}

// LoadDataset reads a dataset file from disk, registers it under its path
// and returns it. The format is guessed from the first record. The file is
// read and parsed once (data.ReadMatrix), and the dataset's Raw records are
// the file's own lines (data.FromMatrix adopts the text the matrix was parsed
// from), so the bytes the simulator charges are the file's.
func (s *System) LoadDataset(path string, task data.TaskKind) (*data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	format, err := sniffFormat(f)
	if err != nil {
		return nil, fmt.Errorf("ml4all: loading %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	m, err := data.ReadMatrix(f, format)
	if err != nil {
		return nil, fmt.Errorf("ml4all: loading %s: %w", path, err)
	}
	ds := data.FromMatrix(path, task, m)
	ds.Format = format
	s.RegisterDataset(path, ds)
	return ds, nil
}

// sniffFormat decides LIBSVM vs CSV from the first record of r (the first
// line that is neither blank nor a comment), which may be as long as the
// loader accepts.
func sniffFormat(r io.Reader) (data.Format, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, data.MaxRecordBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if bytes.IndexByte(line, ':') >= 0 {
			return data.FormatLIBSVM, nil
		}
		return data.FormatCSV, nil
	}
	return data.FormatLIBSVM, sc.Err()
}

// Optimize runs the cost-based optimizer (speculation + costing of the
// eleven-plan space) and returns its decision. The returned decision's
// SpecTime is the simulated optimization overhead.
func (s *System) Optimize(ds *data.Dataset, p Params) (*Decision, error) {
	j, err := s.open(ds, p, false, nil, nil)
	if err != nil {
		return nil, err
	}
	return j.dec, nil
}

// estimatorConfig returns the estimator settings with the system's worker
// pool applied when the estimator does not pin its own, so a Workers: 1
// escape hatch (stateful UDFs) covers speculation runs too.
func (s *System) estimatorConfig() estimator.Config {
	cfg := s.Estimator
	if cfg.Workers == 0 {
		cfg.Workers = s.Workers
	}
	return cfg
}

// Execute runs one plan to completion and returns its result.
func (s *System) Execute(ds *data.Dataset, plan Plan) (*Result, error) {
	sim := cluster.New(s.Cluster)
	st, err := storage.Build(ds, s.Layout)
	if err != nil {
		return nil, err
	}
	return engine.Run(sim, st, &plan, s.engineOptions(false, nil))
}

// engineOptions maps the system's settings, a kernel tier and an optional
// observer onto the engine's.
func (s *System) engineOptions(fastMath bool, o engine.Observer) engine.Options {
	return engine.Options{Seed: s.Cluster.Seed, Workers: s.Workers, FastMath: fastMath, Observer: o}
}

// Train optimizes and executes in one timeline: the returned result's Time
// includes the optimizer's speculation overhead, matching how Figure 8
// accounts for it. The store is laid out once and shared by optimization and
// execution — same dataset, same layout, one Build.
func (s *System) Train(ds *data.Dataset, p Params) (*Result, *Decision, error) {
	j, err := s.train(ds, p, nil)
	if err != nil {
		return nil, nil, err
	}
	return j.Result(), j.dec, nil
}

// TrainAdaptive is Train with mid-flight re-optimization: the optimizer's
// chosen plan starts, and every AdaptiveConfig.Every iterations the
// controller re-fits the iteration estimate on the observed convergence
// deltas and switches plans when the re-costing projects the remaining work
// to be cheaper elsewhere (weights and step-size schedule carry across; the
// switch overhead is charged to the simulated clock like a fresh job init).
// The returned Result.Time includes the speculation overhead, like Train. An
// `adaptive` run statement is the same controller as a resumable TrainJob.
func (s *System) TrainAdaptive(ds *data.Dataset, p Params, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	j, err := s.train(ds, p, &cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveResult{Result: j.Result(), Decision: j.dec, Refits: j.ctl.History}, nil
}

// train opens a job on ds — adaptive when cfg is non-nil — starts it on the
// optimizer's best plan and steps it to Done, as runQuery does a statement.
func (s *System) train(ds *data.Dataset, p Params, cfg *AdaptiveConfig) (*TrainJob, error) {
	j, err := s.open(ds, p, false, cfg, nil)
	if err != nil {
		return nil, err
	}
	plan := j.dec.Best.Plan
	if j.trainer, err = engine.NewTrainer(j.sim, j.store, &plan, s.engineOptions(false, nil)); err != nil {
		return nil, err
	}
	return j, j.run()
}

// Evaluate scores a model on a test dataset.
func (s *System) Evaluate(m *Model, test *data.Dataset) (Report, error) {
	return metrics.Evaluate(m.Task, m.Weights, test)
}

// Output is what one executed statement produced.
type Output struct {
	Stmt     lang.Stmt
	Model    *Model    // run statements
	Decision *Decision // run statements: the ranked plan space the model's plan came from
	Report   *Report   // predict statements
	Path     string    // persist statements
}

// Exec parses and executes a script of declarative statements against the
// system's catalogs.
func (s *System) Exec(script string) ([]Output, error) {
	stmts, err := lang.Parse(script)
	if err != nil {
		return nil, err
	}
	var outs []Output
	for i, st := range stmts {
		out, err := s.execStmt(st)
		if err != nil {
			// Execution errors carry the statement's ordinal and source
			// position, so a failure in a multi-statement script (or a
			// server-submitted job) points back into the submitted text the
			// way parse errors already do.
			return outs, fmt.Errorf("ml4all: statement %d at %s: %w", i+1, st.At(), err)
		}
		outs = append(outs, out)
	}
	return outs, nil
}

func (s *System) execStmt(st lang.Stmt) (Output, error) {
	switch q := st.(type) {
	case *lang.Run:
		m, dec, err := s.runQuery(q)
		if err != nil {
			return Output{}, err
		}
		return Output{Stmt: st, Model: m, Decision: dec}, nil
	case *lang.Persist:
		m, ok := s.models[q.Model]
		if !ok {
			return Output{}, fmt.Errorf("ml4all: persist: unknown model %q", q.Model)
		}
		if err := SaveModel(q.Path, m); err != nil {
			return Output{}, err
		}
		return Output{Stmt: st, Path: q.Path}, nil
	case *lang.Predict:
		rep, err := s.predictQuery(q)
		if err != nil {
			return Output{}, err
		}
		return Output{Stmt: st, Report: &rep}, nil
	default:
		return Output{}, fmt.Errorf("ml4all: unsupported statement %T", st)
	}
}

// runQuery binds a parsed run statement to datasets/operators and trains. It
// is a loop over the resumable TrainJob the serving subsystem drives (see
// serving.go), so offline Exec and a server-submitted job execute the exact
// same path — same plan choice, same weights, same simulated clock.
func (s *System) runQuery(q *lang.Run) (*Model, *Decision, error) {
	j, err := s.OpenJob(q, JobOptions{})
	if err == nil {
		err = j.run()
	}
	if err != nil {
		return nil, nil, err
	}
	m := j.Model()
	if m.Name == "" {
		m.Name = fmt.Sprintf("q%d", len(s.models)+1)
	}
	s.models[m.Name] = m
	return m, j.Decision(), nil
}

// resolveSource loads/returns the dataset a run statement references,
// applying any column specification.
func (s *System) resolveSource(q *lang.Run) (*data.Dataset, error) {
	path := q.Sources[0].Path
	ds, ok := s.datasets[path]
	if !ok {
		loaded, err := s.LoadDataset(path, taskKind(q, data.TaskSVM))
		if err != nil {
			return nil, fmt.Errorf("ml4all: dataset %q not registered and not loadable: %w", path, err)
		}
		ds = loaded
	}
	// A column specification projects the parsed arena; nothing is re-read.
	if q.Sources[0].Lo != 0 {
		spec := data.ColumnSpec{LabelCol: q.Sources[0].Lo}
		if len(q.Sources) > 1 {
			spec.FeatLo, spec.FeatHi = q.Sources[1].Lo, q.Sources[1].Hi
		}
		m, err := ds.Mat.Project(spec)
		if err != nil {
			return nil, fmt.Errorf("ml4all: %s: %w", path, err)
		}
		return data.FromMatrix(ds.Name+specString(spec), ds.Task, m), nil
	}
	return ds, nil
}

// String renders the spec as a cache-key suffix.
func specString(c data.ColumnSpec) string {
	return fmt.Sprintf("#%d:%d-%d", c.LabelCol, c.FeatLo, c.FeatHi)
}

// taskKind maps the query's task word onto a TaskKind, defaulting to the
// dataset's own task when the word is generic.
func taskKind(q *lang.Run, fallback data.TaskKind) data.TaskKind {
	switch strings.ToLower(q.Task) {
	case "regression", "leastsquares", "linear", "linreg":
		return data.TaskLinearRegression
	case "logistic", "logr":
		return data.TaskLogisticRegression
	case "svm", "hinge":
		return data.TaskSVM
	default:
		return fallback
	}
}

// bindParams translates the parsed statement into gd.Params and its using
// directives into the pin applyUsing matches plans on. Unknown names fail
// here, before the optimizer speculates anything.
func bindParams(q *lang.Run, ds *data.Dataset) (Params, pin, error) {
	p := Params{Task: ds.Task, Format: ds.Format}
	var pn pin
	switch strings.ToUpper(q.Algorithm) {
	case "":
	case "BGD":
		pn.algo, pn.hasAlgo = gd.BGD, true
	case "SGD":
		pn.algo, pn.hasAlgo = gd.SGD, true
	case "MGD":
		pn.algo, pn.hasAlgo = gd.MGD, true
	default:
		return p, pn, fmt.Errorf("ml4all: unknown algorithm %q (accepted: BGD, SGD, MGD)", q.Algorithm)
	}
	switch strings.ToLower(q.Sampler) {
	case "", "my_sampler":
	case "bernoulli":
		pn.sampling, pn.hasSampling = gd.Bernoulli, true
	case "random", "random-partition":
		pn.sampling, pn.hasSampling = gd.RandomPartition, true
	case "shuffle", "shuffled-partition":
		pn.sampling, pn.hasSampling = gd.ShuffledPartition, true
	default:
		return p, pn, fmt.Errorf("ml4all: unknown sampler %q (accepted: bernoulli, random, random-partition, shuffle, shuffled-partition, my_sampler)", q.Sampler)
	}
	switch strings.ToLower(q.Task) {
	case "classification":
		p.Task = ds.Task
		if ds.Task == data.TaskLinearRegression {
			p.Task = data.TaskSVM
		}
	case "regression":
		p.Task = data.TaskLinearRegression
	case "svm", "hinge":
		p.Task = data.TaskSVM
		p.Gradient = gradients.Hinge{}
	case "logistic", "logr":
		p.Task = data.TaskLogisticRegression
		p.Gradient = gradients.Logistic{}
	case "leastsquares", "linear", "linreg":
		p.Task = data.TaskLinearRegression
		p.Gradient = gradients.LeastSquares{}
	default:
		return p, pn, fmt.Errorf("ml4all: unknown task or gradient function %q", q.Task)
	}
	if q.Epsilon > 0 {
		p.Tolerance = q.Epsilon
	}
	if q.MaxIter > 0 {
		p.MaxIter = q.MaxIter
	}
	if q.HasStep {
		p.Step = step.InvSqrt{Beta: q.Step}
	}
	switch strings.ToLower(q.Convergence) {
	case "":
	case "l1", "cnvg":
		p.Converger = gd.L1Converger{}
	case "l2":
		p.Converger = gd.L2Converger{}
	default:
		return p, pn, fmt.Errorf("ml4all: unknown convergence function %q", q.Convergence)
	}
	return p, pn, nil
}

// pin is a statement's using directives (algorithm, sampler) as the plan
// fields they fix; a dimension whose has-flag is false is left open.
type pin struct {
	algo        gd.Algo
	hasAlgo     bool
	sampling    gd.SamplingKind
	hasSampling bool
}

// applyUsing narrows the optimizer's decision by the statement's pin: the
// optimizer still picks the cheapest plan inside the narrowed space, which
// is how Section 8.4 uses ML4all to pick the best physical plan for a fixed
// algorithm.
func applyUsing(dec *Decision, q *lang.Run, pn pin) (planner.Choice, error) {
	for _, c := range dec.Ranked {
		if (!pn.hasAlgo || c.Plan.Algorithm == pn.algo) && (!pn.hasSampling || c.Plan.Sampling == pn.sampling) {
			return c, nil
		}
	}
	return planner.Choice{}, fmt.Errorf("ml4all: no plan matches using algorithm=%q sampler=%q", q.Algorithm, q.Sampler)
}

func (s *System) predictQuery(q *lang.Predict) (Report, error) {
	m, ok := s.models[q.Model]
	if !ok {
		loaded, err := LoadModel(q.Model)
		if err != nil {
			return Report{}, fmt.Errorf("ml4all: predict: model %q neither trained nor loadable: %w", q.Model, err)
		}
		m = loaded
	}
	test, ok := s.datasets[q.Data]
	if !ok {
		loaded, err := s.LoadDataset(q.Data, m.Task)
		if err != nil {
			return Report{}, fmt.Errorf("ml4all: predict: dataset %q: %w", q.Data, err)
		}
		test = loaded
	}
	return metrics.Evaluate(m.Task, m.Weights, test)
}

// modelCRCTable is the CRC32-Castagnoli table for the model file trailer —
// the same polynomial the serving layer frames checkpoints with.
var modelCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeModel renders a model in the SaveModel text format — a provenance
// header, one %.17g weight per line (bit-exact round-trip) — terminated by a
// "# crc32c=XXXXXXXX" trailer over everything before it, so loaders detect a
// torn or bit-flipped file instead of serving it.
func EncodeModel(m *Model) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, modelHeader+"%s task=%s plan=%s iterations=%d converged=%t traintime=%.17g\n",
		m.Name, m.Task, m.PlanName, m.Iterations, m.Converged, float64(m.TrainTime))
	for _, v := range m.Weights {
		fmt.Fprintf(&buf, "%.17g\n", v)
	}
	fmt.Fprintf(&buf, "%s%08x\n", modelCRCPrefix, crc32.Checksum(buf.Bytes(), modelCRCTable))
	return buf.Bytes()
}

const (
	modelHeader    = "# ml4all model "
	modelCRCPrefix = "# crc32c="
)

// SaveModel persists a model as a small text file (see EncodeModel) through
// the durable-write protocol: a crash or a failed write leaves the file that
// was at path before, never a truncated one. The header's key=value fields
// round-trip through LoadModel (the model registry depends on it).
func SaveModel(path string, m *Model) error {
	return fault.WriteDurable(fault.OS, path, EncodeModel(m))
}

// LoadModel reads a model persisted by SaveModel, verifying its checksum.
func LoadModel(path string) (*Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeModel(raw, path)
}

// DecodeModel parses the SaveModel text format. name labels the model and
// its error messages (LoadModel passes the path; the registry, the version
// name). The checksum trailer must be present and match: a file without one
// was cut before its last line, a mismatch means it was torn or corrupted,
// and neither may be served. The first line must be the "# ml4all model"
// header and must name the task, which decides how the weights score.
func DecodeModel(raw []byte, name string) (*Model, error) {
	i := bytes.LastIndex(raw, []byte(modelCRCPrefix))
	if i < 0 || (i > 0 && raw[i-1] != '\n') {
		return nil, fmt.Errorf("ml4all: model %s: no checksum trailer — corrupt or torn file", name)
	}
	trailer := strings.TrimSpace(string(raw[i+len(modelCRCPrefix):]))
	want, err := strconv.ParseUint(trailer, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("ml4all: model %s: bad checksum trailer %q", name, trailer)
	}
	if got := crc32.Checksum(raw[:i], modelCRCTable); got != uint32(want) {
		return nil, fmt.Errorf("ml4all: model %s: checksum mismatch (file says %08x, content is %08x) — corrupt or torn file", name, uint32(want), got)
	}
	raw = raw[:i]
	path := name
	m := &Model{Name: name}
	header, hasTask := false, false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !header {
			fields, ok := strings.CutPrefix(line, modelHeader)
			if !ok {
				return nil, fmt.Errorf("ml4all: model file %s does not start with the model header", path)
			}
			header = true
			for _, field := range strings.Fields(fields) {
				if v, ok := strings.CutPrefix(field, "task="); ok {
					hasTask = true
					switch v {
					case data.TaskSVM.String():
						m.Task = data.TaskSVM
					case data.TaskLogisticRegression.String():
						m.Task = data.TaskLogisticRegression
					case data.TaskLinearRegression.String():
						m.Task = data.TaskLinearRegression
					default:
						return nil, fmt.Errorf("ml4all: model file %s names unknown task %q", path, v)
					}
				}
				if v, ok := strings.CutPrefix(field, "plan="); ok {
					m.PlanName = v
				}
				if v, ok := strings.CutPrefix(field, "iterations="); ok {
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("ml4all: bad iterations %q in %s: %w", v, path, err)
					}
					m.Iterations = n
				}
				if v, ok := strings.CutPrefix(field, "converged="); ok {
					b, err := strconv.ParseBool(v)
					if err != nil {
						return nil, fmt.Errorf("ml4all: bad converged %q in %s: %w", v, path, err)
					}
					m.Converged = b
				}
				if v, ok := strings.CutPrefix(field, "traintime="); ok {
					t, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return nil, fmt.Errorf("ml4all: bad traintime %q in %s: %w", v, path, err)
					}
					m.TrainTime = Seconds(t)
				}
			}
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("ml4all: bad weight %q in %s: %w", line, path, err)
		}
		m.Weights = append(m.Weights, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ml4all: model file %s: %w", path, err)
	}
	if len(m.Weights) == 0 {
		return nil, fmt.Errorf("ml4all: model file %s holds no weights", path)
	}
	if !hasTask {
		return nil, fmt.Errorf("ml4all: model file %s names no task", path)
	}
	return m, nil
}

// RankedPlanNames returns the decision's plans in ranked order, best first,
// each with its estimated iterations and cost — the CLI's -explain output.
func RankedPlanNames(dec *Decision) []string {
	names := make([]string, len(dec.Ranked))
	for i, c := range dec.Ranked {
		names[i] = fmt.Sprintf("%s (T=%d, est %.2fs)", c.Plan.Name(), c.Iterations, float64(c.Cost))
	}
	return names
}
