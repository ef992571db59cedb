package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"ml4all/internal/cluster"
	"ml4all/internal/costmodel"
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
	"ml4all/internal/sampling"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// This file times calls into each layer's public functions, from outside the
// layer, on fixtures shaped like the workloads' data. The numbers are the
// same whichever workload's traced run prints them; they are what an
// optimization of one layer should move first, and README.md says which
// end-to-end metric on which workload each should move after it.

// sampleNs times fn for about budget and returns the per-call time of each
// sample in nanoseconds. Calls too short to time alone are batched so that
// one sample lasts at least 100 µs.
func sampleNs(budget time.Duration, fn func()) []float64 {
	t0 := time.Now()
	fn() // warm, and a first estimate of the call's length
	first := time.Since(t0)
	batch := 1
	if first < 100*time.Microsecond {
		batch = int(100*time.Microsecond/(first+1)) + 1
	}
	var out []float64
	for start := time.Now(); len(out) < 5 || (time.Since(start) < budget && len(out) < 4000); {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		out = append(out, float64(time.Since(t).Nanoseconds())/float64(batch))
	}
	return out
}

func medianNs(budget time.Duration, fn func()) float64 { return median(sampleNs(budget, fn)) }

// mallocsPer counts heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// fixtures are the small datasets the layer timings run on: the workloads'
// two shapes (dense 100 wide, sparse 2 000 wide at 2 %) at 8 192 rows, so a
// full-batch step is a few hundred microseconds and the block kernels see the
// same row widths they see under batch-train.
type fixtures struct {
	dense, sparse           *data.Dataset
	denseStore, sparseStore *storage.Store
	denseText, sparseText   []byte
}

const fixtureRows = 8192

func newFixtures(seed int64) (*fixtures, error) {
	fx := &fixtures{}
	var err error
	if fx.dense, err = synth.Generate(synth.Spec{Name: "fx-dense", Task: data.TaskLogisticRegression, N: fixtureRows, D: 100, Density: 1, Noise: 0.1, Margin: 1, Seed: seed*16 + 7}); err != nil {
		return nil, err
	}
	if fx.sparse, err = synth.Generate(synth.Spec{Name: "fx-sparse", Task: data.TaskLogisticRegression, N: fixtureRows, D: 2000, Density: 0.02, Noise: 0.1, Margin: 1, Seed: seed*16 + 8}); err != nil {
		return nil, err
	}
	if fx.denseStore, err = storage.Build(fx.dense, storage.DefaultLayout()); err != nil {
		return nil, err
	}
	if fx.sparseStore, err = storage.Build(fx.sparse, storage.DefaultLayout()); err != nil {
		return nil, err
	}
	fx.denseText = []byte(strings.Join(fx.dense.Raw, "\n") + "\n")
	fx.sparseText = []byte(strings.Join(fx.sparse.Raw, "\n") + "\n")
	return fx, nil
}

func logisticParams(ds *data.Dataset) gd.Params {
	return gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 1e-12, MaxIter: 1 << 30}
}

// layerSuite fills m with every per-layer metric that does not depend on the
// workload. unit scales each timing's budget with -seconds.
func layerSuite(rc *runCtx, m map[string]float64) error {
	unit := time.Duration(rc.seconds / runSeconds * float64(40*time.Millisecond))
	fx, err := newFixtures(rc.seed)
	if err != nil {
		return err
	}
	for _, part := range []func(*runCtx, *fixtures, time.Duration, map[string]float64) error{
		langAndDataLayers, plannerLayers, samplingAndClusterLayers, engineLayers, kernelLayers, obsAndFaultLayers,
	} {
		if err := part(rc, fx, unit, m); err != nil {
			return err
		}
	}
	return nil
}

var sink float64

func langAndDataLayers(rc *runCtx, fx *fixtures, unit time.Duration, m map[string]float64) error {
	// lang: an eight-statement script, batch-train's shape.
	var stmts []stmtSpec
	for i := 0; i < 8; i++ {
		stmts = append(stmts, stmtSpec{name: fmt.Sprintf("m%d", i), path: "/data/train.csv", epsilon: "0.0001", maxIter: 150, algo: "BGD", fast: i%2 == 1})
	}
	script := scriptOf(stmts)
	var perr error
	m["lang.parse_us"] = medianNs(unit, func() { _, perr = lang.Parse(script) }) / 1e3
	if perr != nil {
		return perr
	}

	// data: text to arena, both formats.
	var rerr error
	csvNs := medianNs(4*unit, func() { _, rerr = data.ReadMatrix(bytes.NewReader(fx.denseText), data.FormatCSV) })
	svmNs := medianNs(4*unit, func() { _, rerr = data.ReadMatrix(bytes.NewReader(fx.sparseText), data.FormatLIBSVM) })
	if rerr != nil {
		return rerr
	}
	m["data.read_csv_mb_per_s"] = float64(len(fx.denseText)) / 1e6 / (csvNs / 1e9)
	m["data.read_libsvm_mb_per_s"] = float64(len(fx.sparseText)) / 1e6 / (svmNs / 1e9)
	m["data.read_allocs_per_krow"] = mallocsPer(2, func() { data.ReadMatrix(bytes.NewReader(fx.denseText), data.FormatCSV) }) / (fixtureRows / 1000.0)
	m["data.fingerprint_ms"] = medianNs(unit, func() { fx.dense.Fingerprint() }) / 1e6
	csvLine, svmLine := fx.dense.Raw[0][strings.IndexByte(fx.dense.Raw[0], ',')+1:], fx.sparse.Raw[0]
	var vals []float64
	var idx []int32
	m["data.predict_parse_ns_per_row"] = medianNs(unit, func() {
		vals, _, _ = data.ParsePredictCSV(csvLine, vals[:0])
		_, _, idx, vals, _, _ = data.ParsePredictLIBSVM(svmLine, idx[:0], vals[:0])
	}) / 2

	// storage: laying a dataset out in partitions, and cutting worker shards.
	m["storage.build_ms"] = medianNs(unit, func() { storage.Build(fx.dense, storage.DefaultLayout()) }) / 1e6
	var shardNs []float64 // Shards memoizes per store, so each sample cuts a fresh one
	for i := 0; i < 25; i++ {
		st, err := storage.Build(fx.dense, storage.DefaultLayout())
		if err != nil {
			return err
		}
		t0 := time.Now()
		st.Shards(4096)
		shardNs = append(shardNs, float64(time.Since(t0).Nanoseconds()))
	}
	m["storage.shards_us"] = median(shardNs) / 1e3
	return nil
}

func plannerLayers(rc *runCtx, fx *fixtures, unit time.Duration, m map[string]float64) error {
	p := gd.Params{Task: fx.dense.Task, Format: fx.dense.Format, Tolerance: 0.001, MaxIter: 300}
	cfg := cluster.Default()
	for _, a := range []struct {
		name string
		algo gd.Algo
	}{{"bgd", gd.BGD}, {"mgd", gd.MGD}, {"sgd", gd.SGD}} {
		plan, err := gd.ForAlgo(p, a.algo)
		if err != nil {
			return err
		}
		var est estimator.Estimate
		m["estimator.speculate_ms."+a.name] = medianNs(2*unit, func() {
			est, err = estimator.Speculate(plan, fx.denseStore, estimator.Config{Workers: rc.procs})
		}) / 1e6
		if err != nil {
			return err
		}
		iters := est.Exact
		if iters < 0 && len(est.Sequence) > 0 {
			iters = est.Sequence[len(est.Sequence)-1].Iter
		}
		m["estimator.spec_iters."+a.name] = float64(iters)
		if a.algo == gd.BGD {
			m["estimator.fit_us"] = medianNs(unit, func() { estimator.FitInverse(est.Sequence) }) / 1e3
		}
	}
	var err error
	m["planner.choose_ms"] = medianNs(4*unit, func() {
		_, err = planner.Choose(cluster.New(cfg), fx.denseStore, p, planner.Options{Estimator: estimator.Config{Workers: rc.procs}})
	}) / 1e6
	if err != nil {
		return err
	}
	m["planner.cost_all_us"] = medianNs(unit, func() { planner.CostAll(fx.denseStore, cfg, p, 100) }) / 1e3
	model := costmodel.New(fx.denseStore, cfg)
	plan := gd.NewMGD(p, gd.Lazy, gd.ShuffledPartition)
	m["costmodel.plan_cost_ns"] = medianNs(unit, func() { sink += float64(model.PlanCost(plan, 100)) })

	// The paper's yardsticks once more, on data drawn from -seed: what the
	// gated fixed-panel numbers (quality.go) would read on other data.
	sys := newSystem(rc.procs)
	var sweeps []*sweepResult
	for _, sp := range sweepTriple(rc.seed) {
		sp.N = 3000
		ds, err := synth.Generate(sp)
		if err != nil {
			return err
		}
		s, err := sweep(sys, ds, gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: panelTolerance, MaxIter: panelMaxIter}, nil)
		if err != nil {
			return err
		}
		sweeps = append(sweeps, s)
	}
	m["planner.pick_regret_seeded"], m["estimator.iter_err_seeded"] = quality(sweeps)
	return nil
}

func samplingAndClusterLayers(rc *runCtx, fx *fixtures, unit time.Duration, m map[string]float64) error {
	sim := cluster.New(cluster.Default())
	costs := make([]cluster.Seconds, 64)
	for i := range costs {
		costs[i] = cluster.Seconds(0.01 * float64(1+i%7))
	}
	m["cluster.run_waves_us"] = medianNs(unit, func() { sim.RunWaves(costs) }) / 1e3

	for _, k := range []struct {
		name string
		kind gd.SamplingKind
	}{{"bernoulli", gd.Bernoulli}, {"random", gd.RandomPartition}, {"shuffle", gd.ShuffledPartition}} {
		s, err := sampling.New(k.kind)
		if err != nil {
			return err
		}
		env := &sampling.Env{Sim: cluster.New(cluster.Default()), Store: fx.denseStore, RNG: rand.New(rand.NewSource(rc.seed))}
		drawn := 0
		calls := 0
		ns := medianNs(unit, func() {
			ids, derr := s.Draw(env, 1000)
			if derr != nil {
				err = derr
			}
			drawn += len(ids)
			calls++
		})
		if err != nil {
			return err
		}
		m["sampling.draw_ns_per_row."+k.name] = ns / (float64(drawn) / float64(calls))
	}
	return nil
}

// stepTimes builds a trainer and times Step calls for about budget.
func stepTimes(st *storage.Store, plan gd.Plan, opts engine.Options, budget time.Duration) ([]float64, error) {
	t, err := engine.NewTrainer(cluster.New(cluster.Default()), st, &plan, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ { // warm the trainer's buffers
		if err := t.Step(); err != nil {
			return nil, err
		}
	}
	var out []float64
	for start := time.Now(); len(out) < 20 || (time.Since(start) < budget && len(out) < 20000); {
		t0 := time.Now()
		if err := t.Step(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds()))
		if t.Done() {
			return nil, fmt.Errorf("bench: %s stopped after %d steps; the timing loop needs a run that does not end", plan.Name(), len(out))
		}
	}
	return out, nil
}

func engineLayers(rc *runCtx, fx *fixtures, unit time.Duration, m map[string]float64) error {
	pd, ps := logisticParams(fx.dense), logisticParams(fx.sparse)
	opts := engine.Options{Seed: 1, Workers: rc.procs}
	bgd := gd.NewBGD(pd)
	var err error
	m["engine.new_trainer_ms"] = medianNs(2*unit, func() {
		_, err = engine.NewTrainer(cluster.New(cluster.Default()), fx.denseStore, &bgd, opts)
	}) / 1e6
	if err != nil {
		return err
	}

	put := func(name string, times []float64) {
		m["engine.step_us."+name+".p50"] = quantile(times, 0.5) / 1e3
		m["engine.step_us."+name+".p99"] = quantile(times, 0.99) / 1e3
	}
	fast := opts
	fast.FastMath = true
	steps := map[string][]float64{}
	for _, c := range []struct {
		name string
		st   *storage.Store
		plan gd.Plan
		opts engine.Options
	}{
		{"bgd_dense", fx.denseStore, gd.NewBGD(pd), opts},
		{"bgd_sparse", fx.sparseStore, gd.NewBGD(ps), opts},
		{"bgd_dense_fast", fx.denseStore, gd.NewBGD(pd), fast},
		{"bgd_sparse_fast", fx.sparseStore, gd.NewBGD(ps), fast},
		{"mgd", fx.denseStore, gd.NewMGD(pd, gd.Eager, gd.ShuffledPartition), opts},
		{"sgd", fx.denseStore, gd.NewSGD(pd, gd.Lazy, gd.ShuffledPartition), opts},
	} {
		if steps[c.name], err = stepTimes(c.st, c.plan, c.opts, 4*unit); err != nil {
			return err
		}
	}
	for _, name := range []string{"bgd_dense", "bgd_sparse", "mgd", "sgd"} {
		put(name, steps[name])
	}
	rowsPerS := func(name string) float64 { return fixtureRows / (quantile(steps[name], 0.5) / 1e9) }
	m["engine.rows_per_s.dense.exact"] = rowsPerS("bgd_dense")
	m["engine.rows_per_s.dense.fast"] = rowsPerS("bgd_dense_fast")
	m["engine.rows_per_s.sparse.exact"] = rowsPerS("bgd_sparse")
	m["engine.rows_per_s.sparse.fast"] = rowsPerS("bgd_sparse_fast")

	// Computed, not measured: a full-batch step makes two passes over the
	// stored values (margins, then accumulate), a multiply-add each, and
	// streams the arena from memory once — the second pass finds its block in
	// cache. So flops = 4·nnz and bytes = 8·nnz per step.
	nnz := float64(fx.dense.Mat.NNZ())
	stepS := quantile(steps["bgd_dense"], 0.5) / 1e9
	m["engine.gflops"] = 4 * nnz / stepS / 1e9
	m["engine.gb_per_s"] = 8 * nnz / stepS / 1e9
	m["linalg.stream_gb_per_s"] = streamTriadGBps(rc.procs)
	m["engine.roofline_frac"] = m["engine.gb_per_s"] / m["linalg.stream_gb_per_s"]

	serial := opts
	serial.Workers = 1
	one, err := stepTimes(fx.denseStore, gd.NewBGD(pd), serial, 4*unit)
	if err != nil {
		return err
	}
	m["engine.parallel_efficiency"] = quantile(one, 0.5) / (float64(rc.procs) * quantile(steps["bgd_dense"], 0.5))

	// Allocation, checkpoint and resume cost of a live trainer.
	plan := gd.NewMGD(pd, gd.Eager, gd.ShuffledPartition)
	tr, err := engine.NewTrainer(cluster.New(cluster.Default()), fx.denseStore, &plan, opts)
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		tr.Step()
	}
	m["engine.step_allocs"] = mallocsPer(200, func() { tr.Step() })
	var blob []byte
	m["engine.checkpoint_us"] = medianNs(unit, func() {
		st, cerr := tr.Checkpoint()
		if cerr == nil {
			blob, cerr = st.Encode()
		}
		if cerr != nil {
			err = cerr
		}
	}) / 1e3
	if err != nil {
		return err
	}
	m["engine.checkpoint_bytes"] = float64(len(blob))
	m["engine.resume_ms"] = medianNs(2*unit, func() {
		st, rerr := engine.DecodeTrainState(blob)
		if rerr == nil {
			_, rerr = engine.Resume(cluster.New(cluster.Default()), fx.denseStore, &plan, opts, st)
		}
		if rerr != nil {
			err = rerr
		}
	}) / 1e6
	if err != nil {
		return err
	}

	// What watching a run costs per iteration: the same SGD steps with the
	// observability ring attached, minus without.
	watched := opts
	watched.Observer = obs.NewRing(0)
	with, err := stepTimes(fx.denseStore, gd.NewSGD(pd, gd.Lazy, gd.ShuffledPartition), watched, 4*unit)
	if err != nil {
		return err
	}
	m["engine.observer_tax_ns"] = quantile(with, 0.5) - quantile(steps["sgd"], 0.5)
	return nil
}

// streamTriadGBps is the host's memory roofline as the benchmark sees it: the
// STREAM triad a[i] = b[i] + s·c[i] over three 32 MB arrays (four times a
// 8 MB last-level cache; 24 bytes move per element), split over procs
// goroutines, best of five passes.
func streamTriadGBps(procs int) float64 {
	const n = 4 << 20
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), float64(n-i)
	}
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		done := make(chan struct{}, procs)
		for p := 0; p < procs; p++ {
			lo, hi := p*n/procs, (p+1)*n/procs
			go func() {
				x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range x {
					x[i] = y[i] + 3*z[i]
				}
				done <- struct{}{}
			}()
		}
		for p := 0; p < procs; p++ {
			<-done
		}
		if gbps := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	sink += a[n/2]
	return best
}

func kernelLayers(rc *runCtx, fx *fixtures, unit time.Duration, m map[string]float64) error {
	const rows = data.DefaultBlockSize
	dense, csr := fx.dense.Mat.Block(0, rows), fx.sparse.Mat.Block(0, rows)
	rng := rand.New(rand.NewSource(rc.seed))
	weights := func(d int) linalg.Vector {
		w := make(linalg.Vector, d)
		for i := range w {
			w[i] = rng.NormFloat64() / 10
		}
		return w
	}
	wd, ws := weights(fx.dense.NumFeatures), weights(fx.sparse.NumFeatures)
	margins := make([]float64, rows)

	// gradients: one 512-row block through each loss, tier and layout.
	for _, g := range []struct {
		name string
		grad gradients.FastGradient
	}{{"hinge", gradients.Hinge{}}, {"logistic", gradients.Logistic{}}, {"lsq", gradients.LeastSquares{}}} {
		for _, l := range []struct {
			name string
			blk  data.Block
			w    linalg.Vector
		}{{"dense", dense, wd}, {"csr", csr, ws}} {
			acc := make(linalg.Vector, len(l.w))
			m["gradients.block_ns_per_row."+g.name+".exact."+l.name] = medianNs(unit, func() { g.grad.AddGradientBlock(l.w, l.blk, margins, acc) }) / rows
			m["gradients.block_ns_per_row."+g.name+".fast."+l.name] = medianNs(unit, func() { g.grad.AddGradientBlockFast(l.w, l.blk, margins, acc) }) / rows
		}
	}

	// linalg: the primitives under them.
	dv, stride, _ := dense.DenseRows()
	offs, idx, vals, _ := csr.CSRRows()
	m["linalg.dense_margins_ns_per_row.exact"] = medianNs(unit, func() { linalg.DenseMargins(dv, stride, wd, margins) }) / rows
	m["linalg.dense_margins_ns_per_row.fast"] = medianNs(unit, func() { linalg.DenseMarginsFast(dv, stride, wd, margins) }) / rows
	m["linalg.csr_margins_ns_per_row.exact"] = medianNs(unit, func() { linalg.CSRMargins(offs, idx, vals, ws, margins) }) / rows
	m["linalg.csr_margins_ns_per_row.fast"] = medianNs(unit, func() { linalg.CSRMarginsFast(offs, idx, vals, ws, margins) }) / rows
	acc := make(linalg.Vector, len(wd))
	m["linalg.dense_accum_ns_per_row.fast"] = medianNs(unit, func() { linalg.DenseAccumFast(acc, dv, stride, margins) }) / rows
	src, dst := make([]float64, rows), make([]float64, rows)
	for i := range src {
		src[i] = rng.NormFloat64() * 4
	}
	m["linalg.exp_ns_per_elem.fast"] = medianNs(unit, func() { linalg.ExpFastVec(dst, src) }) / rows
	parts := make([]linalg.Vector, rc.procs) // one partial per worker, sparse-model wide; zeros stay zeros under the fold
	for i := range parts {
		parts[i] = make(linalg.Vector, len(ws))
	}
	m["linalg.reduce_tree_us"] = medianNs(unit, func() { sink += linalg.ReduceTree(parts)[0] }) / 1e3

	// metrics: the scoring pass predict and evaluate share.
	n := fixtureRows
	scores := make([]float64, n)
	m["metrics.scores_ns_per_row.dense.exact"] = medianNs(unit, func() { metrics.ScoresInto(wd, fx.dense.Mat, scores) }) / float64(n)
	m["metrics.scores_ns_per_row.dense.fast"] = medianNs(unit, func() { metrics.ScoresIntoFast(wd, fx.dense.Mat, scores) }) / float64(n)
	m["metrics.scores_ns_per_row.csr.exact"] = medianNs(unit, func() { metrics.ScoresInto(ws, fx.sparse.Mat, scores) }) / float64(n)
	m["metrics.scores_ns_per_row.csr.fast"] = medianNs(unit, func() { metrics.ScoresIntoFast(ws, fx.sparse.Mat, scores) }) / float64(n)
	var err error
	m["metrics.evaluate_ms"] = medianNs(unit, func() { _, err = metrics.Evaluate(fx.dense.Task, wd, fx.dense) }) / 1e6
	return err
}
