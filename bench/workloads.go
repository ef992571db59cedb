package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ml4all"
	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/engine"
	"ml4all/internal/gd"
	"ml4all/internal/obs"
	"ml4all/internal/serve"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// workload is one set of inputs and the unit of work the benchmark repeats
// on them. A unit is what a user submits and waits for: a script, a sweep, a
// served job.
type workload interface {
	specs(seed int64) []synth.Spec
	// prepare runs inside set-up, after the files exist and the server is up.
	prepare(rc *runCtx) error
	// unit runs one unit of work the way a user would.
	unit(rc *runCtx) (*unitOut, error)
	// replay runs the same unit one layer call at a time under rc's tracer
	// (nil tracer: the untraced twin).
	replay(rc *runCtx, tr *tracer, rep int) (*unitOut, error)
	// reference runs the unit serially (Workers 1): results must not depend
	// on the worker count.
	reference(rc *runCtx) (*unitOut, error)
	// overheadSim is the simulated optimizer overhead of one unit.
	overheadSim(rc *runCtx) (float64, error)
	// served reports whether the unit goes through the HTTP server, in which
	// case it is timed while predict traffic runs beside it.
	served() bool
}

// workloadNames is the order -workload all runs them in.
var workloadNames = []string{"cold-auto", "batch-train", "plan-sweep", "serve-mixed"}

func workloadByName(name string) (workload, error) {
	switch name {
	case "cold-auto":
		return &coldAuto{}, nil
	case "batch-train":
		return &batchTrain{}, nil
	case "plan-sweep":
		return &planSweep{}, nil
	case "serve-mixed":
		return &serveMixed{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// ---- cold-auto -----------------------------------------------------------

// coldAuto is what a user of the declarative interface pays from nothing: a
// fresh System per repetition, one script of two statements over files it has
// never seen, the optimizer free to choose. The pick is SGD, whose 300
// iterations cost microseconds, so reading and parsing the files (data,
// storage) and choosing the plan (planner, estimator) are nearly the whole
// clock and the engine and its kernels almost none of it.
type coldAuto struct {
	stmts []stmtSpec
	last  *ml4all.System
}

func (w *coldAuto) specs(seed int64) []synth.Spec { return bigPair(seed) }
func (w *coldAuto) served() bool                  { return false }

func (w *coldAuto) prepare(rc *runCtx) error {
	w.stmts = []stmtSpec{
		{name: "a", path: rc.files[0].Path, epsilon: "0.001", maxIter: 300},
		{name: "b", path: rc.files[1].Path, epsilon: "0.001", maxIter: 300},
	}
	return nil
}

func (w *coldAuto) unit(rc *runCtx) (*unitOut, error) {
	w.last = newSystem(rc.procs)
	return execUnit(w.last, w.stmts)
}

func (w *coldAuto) replay(rc *runCtx, tr *tracer, rep int) (*unitOut, error) {
	return replayScript(tr, rep, "cold-auto.unit", w.stmts, nil, rc.procs)
}

func (w *coldAuto) reference(rc *runCtx) (*unitOut, error) {
	return execUnit(newSystem(1), w.stmts)
}

func (w *coldAuto) overheadSim(rc *runCtx) (float64, error) {
	if w.last == nil {
		w.last = newSystem(rc.procs)
	}
	return scriptOverheadSim(w.last, w.stmts)
}

// ---- batch-train ---------------------------------------------------------

// batchTrain pins the algorithm so the clock is iterations: the same two
// datasets, already in the catalog (loading them is set-up), each trained
// with BGD and MGD, on the exact tier and with `having fastmath`, across
// dense/CSR × exact/fast × full-batch/mini-batch; the parsers do nothing. At
// the first baseline three quarters of the wall clock were engine.Trainer.Step
// spans and one quarter the speculation Exec runs for each of the eight
// statements — which steps a trainer of its own over a sample — and 93 % of
// the processor time was the gradients block kernels and the linalg routines
// under them (README.md, "First baseline"). 150 iterations with a tolerance
// no run reaches, so every seed does the same work.
type batchTrain struct {
	sys   *ml4all.System
	stmts []stmtSpec
}

func (w *batchTrain) specs(seed int64) []synth.Spec { return bigPair(seed) }
func (w *batchTrain) served() bool                  { return false }

func (w *batchTrain) prepare(rc *runCtx) error {
	w.sys = newSystem(rc.procs)
	w.stmts = nil
	for _, f := range rc.files {
		if _, err := w.sys.LoadDataset(f.Path, f.Task); err != nil {
			return err
		}
		for _, algo := range []string{"BGD", "MGD"} {
			for _, fast := range []bool{false, true} {
				name := fmt.Sprintf("%s_%s", f.Name, strings.ToLower(algo))
				if fast {
					name += "_fast"
				}
				w.stmts = append(w.stmts, stmtSpec{name: name, path: f.Path, epsilon: "0.0001", maxIter: 150, algo: algo, fast: fast})
			}
		}
	}
	return nil
}

func (w *batchTrain) unit(rc *runCtx) (*unitOut, error) { return execUnit(w.sys, w.stmts) }

func (w *batchTrain) catalog() map[string]*data.Dataset {
	c := map[string]*data.Dataset{}
	for _, s := range w.stmts {
		c[s.path], _ = w.sys.Dataset(s.path)
	}
	return c
}

func (w *batchTrain) replay(rc *runCtx, tr *tracer, rep int) (*unitOut, error) {
	return replayScript(tr, rep, "batch-train.unit", w.stmts, w.catalog(), rc.procs)
}

func (w *batchTrain) reference(rc *runCtx) (*unitOut, error) {
	w.sys.Workers = 1
	defer func() { w.sys.Workers = rc.procs }()
	return execUnit(w.sys, w.stmts)
}

func (w *batchTrain) overheadSim(rc *runCtx) (float64, error) {
	return scriptOverheadSim(w.sys, w.stmts)
}

// ---- plan-sweep ----------------------------------------------------------

// planSweep runs the optimizer and then every one of the eleven plans on
// three small datasets — the paper's Figure 8 procedure — and uses the engine
// the other way round from batch-train: 100-row MGD batches and single-row
// SGD steps over eager and lazy transforms and all three samplers, where what
// a step costs whatever its batch (drawing the sample, cluster.Sim's
// accounting, the update and the convergence check, allocation) is the clock
// and the gradient kernels are a seventh of it. A kernel gain bought with
// per-step overhead shows as a loss here.
//
// Every plan runs a fixed number of iterations (the tolerance is one no plan
// reaches), so every seed does the same work and the wall clock compares
// across seeds. The number depends on what a step visits, as it does when
// plans run to convergence — the smaller the batch, the more steps: at one cap
// for all, the single full-batch plan was a quarter to a half of the sweep and
// the five SGD plans 2 % of it, and the sweep measured the kernels (84 % of its
// processor time). A little L2 regularization keeps hinge SGD from stopping
// on a zero-gradient draw.
type planSweep struct {
	sys  *ml4all.System
	dss  []*data.Dataset
	last []*sweepResult
}

// sweepBatch is plan-sweep's MGD batch: a tenth of the paper's 1 000, so that
// an MGD step is tens of microseconds and not a third of a millisecond of
// kernel.
const sweepBatch = 100

// sweepBudget is how many iterations plan-sweep gives a plan. A step of BGD
// and a Bernoulli draw both visit all 8 000 rows (the draw tosses a coin per
// row), so those plans get 20; an MGD step visits 100 rows and gets 200; an
// SGD step visits one and gets 40 000, five passes' worth.
func sweepBudget(p gd.Plan) int {
	switch {
	case p.Algorithm == gd.BGD || p.Sampling == gd.Bernoulli:
		return 20
	case p.Algorithm == gd.MGD:
		return 200
	}
	return sweepMaxIter
}

// sweepMaxIter is the largest budget, SGD's, and the cap the optimizer's
// estimates are made under.
const sweepMaxIter = 40000

func (w *planSweep) specs(seed int64) []synth.Spec { return sweepTriple(seed) }
func (w *planSweep) served() bool                  { return false }

func (w *planSweep) params(ds *data.Dataset) gd.Params {
	return gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: sweepMaxIter, BatchSize: sweepBatch, Lambda: 1e-4}
}

func (w *planSweep) prepare(rc *runCtx) error {
	w.sys = newSystem(rc.procs)
	w.dss = nil
	for _, f := range rc.files {
		ds, err := w.sys.LoadDataset(f.Path, f.Task)
		if err != nil {
			return err
		}
		w.dss = append(w.dss, ds)
	}
	return nil
}

func (w *planSweep) sweepAll(sys *ml4all.System) (*unitOut, []*sweepResult, error) {
	u := &unitOut{}
	var sweeps []*sweepResult
	for _, ds := range w.dss {
		s, err := sweep(sys, ds, w.params(ds), sweepBudget)
		if err != nil {
			return nil, nil, err
		}
		sweeps = append(sweeps, s)
		u.sim += s.chosenSim()
		for _, r := range s.Runs {
			u.models = append(u.models, trained{name: ds.Name + "/" + r.Plan, hash: r.WeightsHash})
		}
		if u.serving == nil {
			u.serving = s.chosenModel
		}
	}
	return u, sweeps, nil
}

func (w *planSweep) unit(rc *runCtx) (*unitOut, error) {
	u, sweeps, err := w.sweepAll(w.sys)
	w.last = sweeps
	return u, err
}

func (w *planSweep) reference(rc *runCtx) (*unitOut, error) {
	u, _, err := w.sweepAll(newSystem(1))
	return u, err
}

func (w *planSweep) overheadSim(rc *runCtx) (float64, error) {
	if w.last == nil {
		if _, err := w.unit(rc); err != nil {
			return 0, err
		}
	}
	var total float64
	for _, s := range w.last {
		total += s.SpecSim
	}
	return total, nil
}

// replay spells out System.Optimize and then System.Execute of every plan.
// Execute lays the store out again per plan; the replay does the same, so the
// two clocks cover the same work.
func (w *planSweep) replay(rc *runCtx, tr *tracer, rep int) (*unitOut, error) {
	root := tr.start("plan-sweep.unit", "bench", -1, rep)
	defer tr.end(root)
	cfg := cluster.Default()
	u := &unitOut{}
	for _, ds := range w.dss {
		sim := cluster.New(cfg)
		_, dec, err := optimizeTraced(tr, root, rep, sim, ds, w.params(ds), rc.procs, false)
		if err != nil {
			return nil, err
		}
		for _, c := range dec.Ranked {
			plan := c.Plan
			plan.MaxIter = sweepBudget(plan)
			sim := cluster.New(cfg)
			s := tr.start("storage.Build", "storage", root, rep)
			st, err := storage.Build(ds, storage.DefaultLayout())
			tr.end(s)
			if err != nil {
				return nil, err
			}
			res, err := trainTraced(tr, root, rep, sim, st, &plan, engine.Options{Seed: cfg.Seed, Workers: rc.procs})
			if err != nil {
				return nil, err
			}
			u.models = append(u.models, trained{name: ds.Name + "/" + plan.Name(), hash: weightsHash(res.Weights)})
			if plan.Name() == dec.Best.Plan.Name() {
				u.sim += float64(dec.SpecTime+cfg.JobInitSec) + float64(res.Time)
			}
		}
	}
	return u, nil
}

// ---- serve-mixed ---------------------------------------------------------

// serveMixed is reads beside writes: its unit of work is a training job
// posted to the running server — pinned BGD, so it holds every core — which
// is followed over the job's event stream to `completed` and then asked for
// a prediction from the version it published. The jobs run while the open
// loop keeps predicting against `latest`, so checkpoint fsyncs, registry
// publishes, ledger appends and the trainers themselves land on the predict
// tail, and a training speed-up that costs serving latency (or the reverse)
// shows in one run.
type serveMixed struct {
	stmts   []stmtSpec
	offline *ml4all.System
	jobs    []jobRecord
}

// jobRecord is one served job as the submitter saw it.
type jobRecord struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Version   int           `json:"version"`
	Submit    time.Duration `json:"submit_ns"`     // POST /v1/jobs round trip
	QueueWait time.Duration `json:"queue_wait_ns"` // accepted → running
	Train     time.Duration `json:"train_ns"`      // running → completed
	Predict   time.Duration `json:"predict_ns"`    // first predict on the new version
	Total     time.Duration `json:"total_ns"`
}

const servedModel = "m"

func (w *serveMixed) specs(seed int64) []synth.Spec { return serveSet(seed) }
func (w *serveMixed) served() bool                  { return true }

// prepare publishes the first version, so `latest` answers from the start.
func (w *serveMixed) prepare(rc *runCtx) error {
	w.stmts = []stmtSpec{{name: servedModel, path: rc.files[0].Path, epsilon: "0.000000001", maxIter: 150, algo: "BGD"}}
	w.jobs = nil
	_, err := w.unit(rc)
	return err
}

func (w *serveMixed) unit(rc *runCtx) (*unitOut, error) { return w.replay(rc, nil, 0) }

// replay is the unit itself: it is driven over HTTP either way, and with a
// tracer the client-side intervals and the server's own job trace become
// spans.
func (w *serveMixed) replay(rc *runCtx, tr *tracer, rep int) (*unitOut, error) {
	root := tr.start("serve-mixed.unit", "bench", -1, rep)
	defer tr.end(root)
	rig := rc.rig
	t0 := time.Now()
	base := tr.now()

	var st serve.JobStatus
	s := tr.start("http POST /v1/jobs", "serve", root, rep)
	err := rig.postJSON("/v1/jobs", map[string]string{"script": w.stmts[0].text(), "model": servedModel}, &st)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	rec := jobRecord{ID: st.ID, Submit: time.Since(t0)}

	// Follow the event stream to the terminal state.
	resp, err := rig.client.Get(rig.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return nil, err
	}
	var running, terminal time.Duration
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("bench: job event: %w", err)
		}
		if ev.Type != "state" {
			continue
		}
		switch serve.JobState(ev.State) {
		case serve.JobRunning:
			running = time.Since(t0)
		case serve.JobCompleted, serve.JobFailed, serve.JobCancelled:
			terminal = time.Since(t0)
			rec.State = ev.State
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := rig.getJSON("/v1/jobs/"+st.ID, &st); err != nil {
		return nil, err
	}
	rec.State, rec.Version = string(st.State), st.Version
	rec.QueueWait, rec.Train = running-rec.Submit, terminal-running
	if st.State != serve.JobCompleted {
		w.jobs = append(w.jobs, rec)
		return nil, fmt.Errorf("bench: job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	// Model ready means the new version answers a predict.
	var a answer
	var buf bytes.Buffer
	tp := time.Now()
	s = tr.start("http POST predict (new version)", "serve", root, rep)
	err = rig.predictOnce(servedModel, st.Version, rc.reqs, 0, &buf, &a)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if a.Status != http.StatusOK || int(a.Version) != st.Version {
		return nil, fmt.Errorf("bench: predict on %s@%d answered %d by version %d", servedModel, st.Version, a.Status, a.Version)
	}
	rec.Predict, rec.Total = time.Since(tp), time.Since(t0)
	w.jobs = append(w.jobs, rec)
	rc.newVersionAnswers = append(rc.newVersionAnswers, a)

	if tr != nil {
		w.addServerSpans(rc, tr, root, rep, st.ID, base, rec, running, terminal)
	}
	return w.ledgerOut(rc, st.ID)
}

// addServerSpans re-bases the server's own job trace (optimize, speculate,
// train, checkpoint) under the root span, and fills the two intervals only
// the event stream shows: waiting for a runner, and publish + ledger append
// between the last iteration and `completed`.
func (w *serveMixed) addServerSpans(rc *runCtx, tr *tracer, root, rep int, id string, base time.Duration, rec jobRecord, running, terminal time.Duration) {
	j, ok := rc.rig.srv.Manager().Job(id)
	if !ok {
		return
	}
	// The job trace's clock starts when the job was accepted, inside the
	// submit round trip; anchoring it at the round trip's end is off by at
	// most that round trip (~1 ms of a ~0.5 s job).
	offset := base + rec.Submit
	type placed struct {
		id         int
		start, end time.Duration
	}
	// The server records optimize, train and checkpoint as siblings although
	// checkpoints happen inside train and optimize inside the wait for
	// `running`; a span is re-parented under the latest earlier span whose
	// interval contains it, so self times do not count an interval twice.
	open := []placed{{tr.add("job accepted → running", "serve", root, rep, offset, base+running), offset, base + running}}
	layerOf := map[string]string{"optimize": "planner", "speculate": "estimator", "train": "engine", "checkpoint": "fault"}
	ids := map[int]int{}
	var trainEnd time.Duration
	for _, sp := range j.Trace().Spans() {
		start, end := offset+time.Duration(sp.StartNanos), offset+time.Duration(sp.EndNanos)
		parent, found := ids[sp.Parent]
		if !found {
			parent = root
			for _, o := range open {
				if o.start <= start && end <= o.end {
					parent = o.id
				}
			}
		}
		layer := layerOf[sp.Name]
		if layer == "" {
			layer = "serve"
		}
		ids[sp.ID] = tr.add("job "+sp.Name, layer, parent, rep, start, end)
		open = append(open, placed{ids[sp.ID], start, end})
		if sp.Name == "train" {
			trainEnd = end
		}
	}
	if done := base + terminal; trainEnd > 0 && done > trainEnd {
		tr.add("job publish + ledger", "serve", root, rep, trainEnd, done)
	}
}

// ledgerOut reads the job's outcome from the run ledger the server keeps.
func (w *serveMixed) ledgerOut(rc *runCtx, id string) (*unitOut, error) {
	for _, r := range rc.rig.srv.Manager().Ledger().Records() {
		if r.JobID == id {
			return &unitOut{sim: r.SimSeconds, models: []trained{{name: servedModel, hash: r.WeightsHash}}}, nil
		}
	}
	return nil, fmt.Errorf("bench: job %s has no ledger record", id)
}

func (w *serveMixed) offlineSystem() *ml4all.System {
	if w.offline == nil {
		w.offline = newSystem(1)
	}
	return w.offline
}

func (w *serveMixed) reference(rc *runCtx) (*unitOut, error) {
	return execUnit(w.offlineSystem(), w.stmts)
}

func (w *serveMixed) overheadSim(rc *runCtx) (float64, error) {
	return scriptOverheadSim(w.offlineSystem(), w.stmts)
}
