package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ml4all"
)

// predictRate is the open loop's fixed rate: ~20 % of what one client gets
// out of the loopback predict path on this class of host (~7 000 req/s), so
// the quiet phase measures service time, not queueing, and the mixed phase
// has room to show queueing when training takes the cores.
const predictRate = 1500.0

// maxLateP99 marks a run's latencies suspect: when the load generator sends
// the quiet phase's requests — a phase in which it has a core to itself — this
// late (p99 per second, median over the seconds), the latencies measure the
// host's scheduler. On a calm host the generator is 20-150 µs late there. The
// run says so in its output and its report; it does not fail, because the
// cause is the host's neighbours, not an operation of the program.
const maxLateP99 = 500 * time.Microsecond

// openLoopConns is how many connections the open loop holds: more than
// cores, on purpose. An open loop models independent callers; with a single
// connection a reply slower than the 667 µs period delays the next send and
// the loop turns closed. Of these clients only the ones with a request in
// flight are awake.
const openLoopConns = 8

// fastTolerance is the documented agreement of the fast kernel tier.
const fastTolerance = 1e-6

// runCtx is the state of one run of one workload.
type runCtx struct {
	name       string
	seed       int64
	procs      int
	seconds    float64
	outDir     string
	breakCheck bool

	files []dataFile
	rig   *serveRig
	dim   int // width of the served model and of every request
	reqs  []predictReq
	// newVersionAnswers are the predicts served jobs made against the
	// version they had just published; they are score-checked like the rest.
	newVersionAnswers []answer
}

func (rc *runCtx) dataDir() string {
	return filepath.Join(rc.outDir, "data", fmt.Sprint(rc.seed), rc.name)
}
func (rc *runCtx) stateDir() string { return filepath.Join(rc.outDir, "state", rc.name) }

// setUp is one full set-up pass: generate the inputs and write them as
// files, boot the server on an empty state directory, build the request set,
// and let the workload load its catalog (and, when served, publish a first
// model). Nothing here is inside any other clock.
func (rc *runCtx) setUp(w workload) error {
	specs := w.specs(rc.seed)
	files, err := generateFiles(rc.dataDir(), specs, rc.procs)
	if err != nil {
		return err
	}
	rc.files = files
	if err := os.RemoveAll(rc.stateDir()); err != nil {
		return err
	}
	if err := os.MkdirAll(rc.stateDir(), 0o755); err != nil {
		return err
	}
	if rc.rig, err = bootServer(rc.stateDir(), newSystem(rc.procs)); err != nil {
		return err
	}
	// Requests are as wide as the model the workload serves: its first
	// dataset's.
	rc.dim = specs[0].D
	if rc.reqs, err = requestsFor(rc.seed, rc.dim); err != nil {
		return err
	}
	rc.newVersionAnswers = nil
	return w.prepare(rc)
}

// tearDown stops the server and deletes what set-up wrote — 50 MB of data
// files per pass on the larger workloads, which a hundred runs would pile up
// to gigabytes. Reports and span files stay.
func (rc *runCtx) tearDown() error {
	if rc.rig == nil {
		return nil
	}
	err := rc.rig.close()
	rc.rig = nil
	for _, dir := range []string{rc.dataDir(), rc.stateDir()} {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	os.Remove(filepath.Dir(rc.dataDir())) // the seed's directory, once its last workload is gone; fails harmlessly otherwise
	return err
}

// report is everything one run measured; the contract's result line is a
// projection of it.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Env       envStamp           `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Detail    map[string]any     `json:"detail,omitempty"`
}

func newReport(rc *runCtx, trace bool) *report {
	return &report{
		Workload: rc.name, Trace: trace,
		Env:     stampEnv(rc.seed, rc.procs, rc.outDir),
		Metrics: map[string]float64{}, Samples: map[string]int{}, Detail: map[string]any{},
	}
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// compareUnits checks a unit's models against the reference's: exact-tier
// weights bit for bit, fast-tier weights within the tier's documented
// tolerance.
func (r *report) compareUnits(what string, got, want *unitOut) {
	r.Attempted += len(want.models)
	if len(got.models) != len(want.models) {
		r.fail("%s: %d models, reference has %d", what, len(got.models), len(want.models))
		return
	}
	for i, g := range got.models {
		ref := want.models[i]
		if g.hash == ref.hash {
			continue
		}
		if g.fast && g.weights != nil && ref.weights != nil && g.weights.Equal(ref.weights, fastTolerance) {
			continue
		}
		r.fail("%s: model %s weights %s, reference %s", what, g.name, g.hash, ref.hash)
	}
}

// A run sets up setupPasses times at least, and for setupSeconds at least, and
// reports the median: plan-sweep's set-up takes 0.3 s and read 0.27 and 0.39 s
// in two runs of three passes each, so it gets ten.
const (
	setupPasses  = 3
	setupSeconds = 3.0
)

func runEndToEnd(rc *runCtx, w workload) (*report, error) {
	rep := newReport(rc, false)
	stages := map[string]float64{} // wall seconds of each stage of the run, for the report
	rep.Detail["stage_s"] = stages
	lapStart := time.Now()
	lap := func(name string) {
		stages[name] = time.Since(lapStart).Seconds()
		lapStart = time.Now()
	}

	var setups []float64
	for start := time.Now(); len(setups) < setupPasses || time.Since(start).Seconds() < setupSeconds; {
		if err := rc.tearDown(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := rc.setUp(w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rc.tearDown()
	rep.Metrics["setup_s"], rep.Samples["setup_s"] = median(setups), len(setups)

	lap("set-up")
	// Generating the inputs is the benchmark's memory, not the program's:
	// drop it and start the high-water mark again.
	rep.Detail["peak_rss_excludes_setup"] = resetPeakRSS()
	budget := func(share float64) time.Duration { return time.Duration(share * rc.seconds * float64(time.Second)) }
	var ttm []float64
	var units []*unitOut
	timedUnit := func() error {
		if !w.served() {
			// Every repetition starts from a collected heap, so that its time
			// and the memory high-water mark do not depend on how much garbage
			// the one before happened to leave. A served unit runs beside
			// predict traffic, where a forced collection would be a stall of
			// the benchmark's making.
			runtime.GC()
		}
		t0 := time.Now()
		u, err := w.unit(rc)
		if err != nil {
			return err
		}
		ttm = append(ttm, time.Since(t0).Seconds())
		units = append(units, u)
		return nil
	}

	// Train phase: repetitions of the unit of work on an otherwise idle
	// process. A served workload has none — its unit is timed in the mixed
	// phase, beside predict traffic, where its jobs run.
	durQuiet, durMixed := budget(0.40), budget(0.60)
	if !w.served() {
		durQuiet, durMixed = budget(0.50), 0
		for t0 := time.Now(); len(ttm) < 3 || time.Since(t0) < budget(0.50); {
			if err := timedUnit(); err != nil {
				return nil, fmt.Errorf("unit of work: %w", err)
			}
		}
		if _, err := rc.rig.srv.Registry().Publish(servedModel, units[len(units)-1].serving); err != nil {
			return nil, err
		}
	}

	lap("train")
	// Quiet phase: open loop, nothing beside it.
	quiet, _, err := rc.rig.load(rc.seed, rc.dim, predictRate, durQuiet, openLoopConns)
	if err != nil {
		return nil, fmt.Errorf("quiet phase: %w", err)
	}

	lap("quiet")
	// Mixed phase, served workloads only: the same open loop while one
	// closed-loop submitter posts jobs back to back and times each from POST
	// to the first predict its new version answers. It stops posting when the
	// next job would outlast the traffic.
	var mixed []answer
	if w.served() {
		jobsDone := make(chan error, 1)
		deadline := time.Now().Add(durMixed)
		go func() {
			guard := 2 * time.Second
			for time.Until(deadline) > guard {
				t0 := time.Now()
				if err := timedUnit(); err != nil {
					jobsDone <- err
					return
				}
				guard = time.Since(t0) * 5 / 4
			}
			jobsDone <- nil
		}()
		mixed, _, err = rc.rig.load(rc.seed, rc.dim, predictRate, durMixed, openLoopConns)
		if jobErr := <-jobsDone; jobErr != nil {
			return nil, fmt.Errorf("jobs beside the mixed phase: %w", jobErr)
		}
		if err != nil {
			return nil, fmt.Errorf("mixed phase: %w", err)
		}
		if len(ttm) == 0 {
			return nil, fmt.Errorf("mixed phase of %v completed no job; raise -seconds", durMixed)
		}
	}

	lap("mixed")
	// The paper's yardsticks on the fixed panel.
	sweeps, err := runQualityPanel(rc.procs)
	if err != nil {
		return nil, err
	}
	regret, iterErr := quality(sweeps)
	rep.Detail["quality_panel"] = sweeps

	lap("quality panel")
	// Output checks. Every repetition must have trained the models the first
	// one trained; that they are also what a single worker and the stepwise
	// replay train is checked in the traced run, which has the time.
	for i, u := range units[1:] {
		rep.compareUnits(fmt.Sprintf("unit %d vs unit 0", i+1), u, units[0])
	}
	sc := &scoreChecker{reqs: rc.reqs, model: func(v int) (*ml4all.Model, error) {
		mv, ok := rc.rig.srv.Registry().Get(servedModel, v)
		if !ok {
			return nil, fmt.Errorf("bench: %s@%d answered a predict but is not in the registry", servedModel, v)
		}
		return mv.Model, nil
	}}
	if rc.breakCheck {
		if err := sc.breakOne(quiet[0].Version); err != nil {
			return nil, err
		}
	}
	for _, phase := range [][]answer{quiet, mixed, rc.newVersionAnswers} {
		bad, err := sc.check(phase)
		if err != nil {
			return nil, err
		}
		rep.Attempted += len(phase)
		for i := 0; i < bad; i++ {
			rep.fail("a predict was refused, failed, or answered scores that differ from Model.ScoreMatrix")
		}
	}
	if sm, ok := w.(*serveMixed); ok {
		rep.Attempted += len(sm.jobs)
		for _, j := range sm.jobs {
			if j.State != "completed" {
				rep.fail("job %s ended %s", j.ID, j.State)
			}
		}
		rep.Detail["jobs"] = sm.jobs
	}

	lap("score checks")
	overhead, err := w.overheadSim(rc)
	if err != nil {
		return nil, err
	}
	lap("overhead")
	var sims []float64
	for _, u := range units {
		sims = append(sims, u.sim)
	}
	sim := median(sims)

	m, n := rep.Metrics, rep.Samples
	m["time_to_model_s"], n["time_to_model_s"] = median(ttm), len(ttm)
	rep.Detail["time_to_model_samples_s"] = ttm
	m["sim_time_to_model_s"], n["sim_time_to_model_s"] = sim, len(sims)
	m["sim_optimizer_overhead_share"] = overhead / sim
	m["pick_regret"], m["iter_estimate_err"] = regret, iterErr
	m["predict_p50_us"], n["predict_p50_us"] = intervalQuantile(quiet, 0.5, answer.latencyMicros)

	lateQuiet, _ := intervalQuantile(quiet, 0.99, answer.lateMicros)
	rep.Detail["loadgen"] = map[string]any{
		"rate_per_s": predictRate, "open_loop_connections": openLoopConns,
		"quiet_s": durQuiet.Seconds(), "mixed_s": durMixed.Seconds(),
		"late_p99_us_quiet": lateQuiet, "spin_core_share_quiet": spinCoreShare(quiet, durQuiet),
		"quiet_sent": len(quiet), "mixed_sent": len(mixed),
	}
	if w.served() {
		// Beside trainers the generator shares the cores and runs 1-3 ms late
		// at p99; reported, not judged.
		loadgen := rep.Detail["loadgen"].(map[string]any)
		loadgen["late_p99_us_mixed"], _ = intervalQuantile(mixed, 0.99, answer.lateMicros)
		loadgen["p99_us_mixed"], _ = intervalQuantile(mixed, 0.99, answer.latencyMicros)
		loadgen["spin_core_share_mixed"] = spinCoreShare(mixed, durMixed)
	}
	if lateQuiet > micros(maxLateP99) {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("the load generator sent the quiet phase's requests %.0f µs late at p99 (limit %v): the host was busy, and this run's latencies measure its scheduler", lateQuiet, maxLateP99))
	}
	rep.Detail["per_second"] = map[string]any{"quiet": perSecond(quiet), "mixed": perSecond(mixed)}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	return rep, rc.tearDown()
}
