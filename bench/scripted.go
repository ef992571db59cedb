package main

import (
	"fmt"
	"os"
	"strings"

	"ml4all"
	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/estimator"
	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/lang"
	"ml4all/internal/linalg"
	"ml4all/internal/metrics"
	"ml4all/internal/obs"
	"ml4all/internal/planner"
	"ml4all/internal/storage"
)

var weightsHash = obs.WeightsHash

// stmtSpec is one `run` statement of a workload's script.
type stmtSpec struct {
	name    string
	path    string
	epsilon string // as written in the script
	maxIter int
	algo    string // "" leaves the optimizer free
	fast    bool
}

func (s stmtSpec) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s = run logistic on %s having epsilon %s, max iter %d", s.name, s.path, s.epsilon, s.maxIter)
	if s.fast {
		b.WriteString(", fastmath")
	}
	if s.algo != "" {
		fmt.Fprintf(&b, " using algorithm %s", s.algo)
	}
	b.WriteString(";")
	return b.String()
}

func scriptOf(stmts []stmtSpec) string {
	lines := make([]string, len(stmts))
	for i, s := range stmts {
		lines[i] = s.text()
	}
	return strings.Join(lines, "\n")
}

// trained is one model a unit of work produced.
type trained struct {
	name    string
	fast    bool
	hash    string        // obs.WeightsHash of the weights
	weights linalg.Vector // kept where a tolerance check needs them (fast tier)
}

// unitOut is what one unit of work — one script, one sweep, one served job —
// produced: its models and the paper's clock for it.
type unitOut struct {
	models  []trained
	sim     float64       // simulated seconds, speculation included
	serving *ml4all.Model // the model the serving phases publish, if any
}

func newSystem(workers int) *ml4all.System {
	sys := ml4all.NewSystem()
	sys.Workers = workers
	return sys
}

// execUnit runs the script through System.Exec, the declarative path a user
// takes, and collects the models in statement order.
func execUnit(sys *ml4all.System, stmts []stmtSpec) (*unitOut, error) {
	outs, err := sys.Exec(scriptOf(stmts))
	if err != nil {
		return nil, err
	}
	if len(outs) != len(stmts) {
		return nil, fmt.Errorf("bench: script of %d statements produced %d outputs", len(stmts), len(outs))
	}
	u := &unitOut{}
	for i, o := range outs {
		u.models = append(u.models, trained{name: stmts[i].name, fast: stmts[i].fast, hash: weightsHash(o.Model.Weights), weights: o.Model.Weights})
		u.sim += float64(o.Model.TrainTime)
	}
	u.serving = outs[0].Model
	return u, nil
}

// bindRun mirrors what System.Exec binds a parsed run statement to. The
// benchmark's scripts only say `run logistic`, so that is all it accepts; the
// replay's weights are checked against Exec's, which would expose a drift.
func bindRun(q *lang.Run, ds *data.Dataset) (gd.Params, error) {
	if !strings.EqualFold(q.Task, "logistic") {
		return gd.Params{}, fmt.Errorf("bench: replay binds `run logistic` only, got %q", q.Task)
	}
	return gd.Params{
		Task: data.TaskLogisticRegression, Format: ds.Format, Gradient: gradients.Logistic{},
		Tolerance: q.Epsilon, MaxIter: q.MaxIter,
	}, nil
}

// loadFile is System.LoadDataset spelled out so each layer call gets its own
// span: read and parse the text into an arena, then wrap it as a dataset.
func loadFile(tr *tracer, parent, rep int, path string, task data.TaskKind) (*data.Dataset, error) {
	format := data.FormatLIBSVM
	if strings.HasSuffix(path, ".csv") {
		format = data.FormatCSV
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := tr.start("data.ReadMatrix", "data", parent, rep)
	m, err := data.ReadMatrix(f, format)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("bench: loading %s: %w", path, err)
	}
	s = tr.start("data.FromMatrix", "data", parent, rep)
	ds := data.FromMatrix(path, task, m)
	ds.Format = format
	tr.end(s)
	return ds, nil
}

// optimizeTraced is System.Optimize's body — lay out the store, then choose —
// with spans, and the planner's own Span hook turned into child spans.
func optimizeTraced(tr *tracer, parent, rep int, sim *cluster.Sim, ds *data.Dataset, p gd.Params, workers int, fast bool) (*storage.Store, *planner.Decision, error) {
	s := tr.start("storage.Build", "storage", parent, rep)
	st, err := storage.Build(ds, storage.DefaultLayout())
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	opts := planner.Options{Estimator: estimator.Config{Workers: workers}, FastMath: fast}
	s = tr.start("planner.Choose", "planner", parent, rep)
	if tr != nil {
		opts.Span = func(string) func() {
			id := tr.start("estimator.Speculate", "estimator", s, rep)
			return func() { tr.end(id) }
		}
	}
	dec, err := planner.Choose(sim, st, p, opts)
	tr.end(s)
	return st, dec, err
}

const sgdStepsPerSpan = 256

// trainTraced is engine.Run's loop with a span per call: build the trainer,
// step it to the end, collect the result.
func trainTraced(tr *tracer, parent, rep int, sim *cluster.Sim, st *storage.Store, plan *gd.Plan, opts engine.Options) (*engine.Result, error) {
	s := tr.start("engine.NewTrainer", "engine", parent, rep)
	t, err := engine.NewTrainer(sim, st, plan, opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	// One span per step, except SGD: its steps take about a microsecond, which
	// two clock reads and a span record would inflate by a quarter (measured on
	// plan-sweep's 480 000 SGD steps), so a span covers sgdStepsPerSpan of them.
	step, perSpan := "engine.Trainer.Step "+plan.Algorithm.String(), 1
	if plan.Algorithm == gd.SGD {
		perSpan = sgdStepsPerSpan
	}
	for !t.Done() {
		s = tr.start(step, "engine", parent, rep)
		for i := 0; i < perSpan && !t.Done() && err == nil; i++ {
			err = t.Step()
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.start("engine.Trainer.Finish", "engine", parent, rep)
	res := t.Finish()
	tr.end(s)
	return res, nil
}

// replayScript executes a script step by step through the public functions
// System.Exec and OpenJob call, one span per call. catalog holds the datasets
// already loaded (nil for a cold start); with a nil tracer it is the untraced
// twin the tracing overhead is measured against.
func replayScript(tr *tracer, rep int, rootName string, stmts []stmtSpec, catalog map[string]*data.Dataset, workers int) (*unitOut, error) {
	root := tr.start(rootName, "bench", -1, rep)
	defer tr.end(root)
	s := tr.start("lang.Parse", "lang", root, rep)
	parsed, err := lang.Parse(scriptOf(stmts))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if catalog == nil {
		catalog = map[string]*data.Dataset{}
	}
	cfg := cluster.Default()
	u := &unitOut{}
	for i, ps := range parsed {
		q, ok := ps.(*lang.Run)
		if !ok || len(q.Sources) != 1 {
			return nil, fmt.Errorf("bench: statement %d is not a single-source run statement", i+1)
		}
		path := q.Sources[0].Path
		ds := catalog[path]
		if ds == nil {
			if ds, err = loadFile(tr, root, rep, path, data.TaskLogisticRegression); err != nil {
				return nil, err
			}
			catalog[path] = ds
		}
		p, err := bindRun(q, ds)
		if err != nil {
			return nil, err
		}
		sim := cluster.New(cfg)
		st, dec, err := optimizeTraced(tr, root, rep, sim, ds, p, workers, q.FastMath)
		if err != nil {
			return nil, err
		}
		plan, err := narrow(dec, q.Algorithm)
		if err != nil {
			return nil, err
		}
		res, err := trainTraced(tr, root, rep, sim, st, &plan, engine.Options{Seed: cfg.Seed, Workers: workers, FastMath: q.FastMath})
		if err != nil {
			return nil, err
		}
		m := &ml4all.Model{
			Name: q.Result, Task: ds.Task, Weights: res.Weights, PlanName: plan.Name(),
			Iterations: res.Iterations, TrainTime: sim.Now(), Converged: res.Converged,
		}
		publishTraced(tr, root, rep, m, ds)
		u.models = append(u.models, trained{name: stmts[i].name, fast: q.FastMath, hash: weightsHash(res.Weights), weights: res.Weights})
		u.sim += float64(sim.Now())
	}
	return u, nil
}

// publishTraced covers the two calls between a finished trainer and a model
// that answers: encoding it (what persist and the registry store) and scoring
// rows with it (what predict runs).
func publishTraced(tr *tracer, parent, rep int, m *ml4all.Model, ds *data.Dataset) {
	s := tr.start("ml4all.EncodeModel", "model", parent, rep)
	encodeSink = ml4all.EncodeModel(m)
	tr.end(s)
	n := ds.N()
	if n > data.DefaultBlockSize {
		n = data.DefaultBlockSize
	}
	scores := make([]float64, n)
	s = tr.start("metrics.ScoresInto", "metrics", parent, rep)
	metrics.ScoresInto(m.Weights, ds.Mat.Slice(0, n), scores)
	tr.end(s)
}

var encodeSink []byte

// narrow is the statement's `using algorithm` directive: the cheapest plan of
// that algorithm in the optimizer's ranking, or the overall best without one.
func narrow(dec *planner.Decision, algo string) (gd.Plan, error) {
	for _, c := range dec.Ranked {
		if algo == "" || strings.EqualFold(c.Plan.Algorithm.String(), algo) {
			return c.Plan, nil
		}
	}
	return gd.Plan{}, fmt.Errorf("bench: no plan for algorithm %q", algo)
}

// scriptOverheadSim is the simulated optimizer overhead of one run of the
// script: per statement, the speculation time plus the driver job that
// collects its sample. Statements that differ only in the pinned algorithm or
// kernel tier speculate identically, so each (file, tolerance, cap) is
// optimized once.
func scriptOverheadSim(sys *ml4all.System, stmts []stmtSpec) (float64, error) {
	parsed, err := lang.Parse(scriptOf(stmts))
	if err != nil {
		return 0, err
	}
	seen := map[string]float64{}
	var total float64
	for _, ps := range parsed {
		q := ps.(*lang.Run)
		key := fmt.Sprintf("%s|%g|%d", q.Sources[0].Path, q.Epsilon, q.MaxIter)
		if _, ok := seen[key]; !ok {
			ds, ok := sys.Dataset(q.Sources[0].Path)
			if !ok {
				if ds, err = sys.LoadDataset(q.Sources[0].Path, data.TaskLogisticRegression); err != nil {
					return 0, err
				}
			}
			p, err := bindRun(q, ds)
			if err != nil {
				return 0, err
			}
			dec, err := sys.Optimize(ds, p)
			if err != nil {
				return 0, err
			}
			seen[key] = float64(dec.SpecTime + sys.Cluster.JobInitSec)
		}
		total += seen[key]
	}
	return total, nil
}
