package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. The tables below
// are the single source of names and units for what the program prints;
// spec_test.go checks BENCHMARK.json against them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSeconds is BENCHMARK.json's run_seconds, the default of -seconds.
const runSeconds = 20

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them (the contract requires it); README.md says what
// each means on each workload. Bounds are set from the measured run-to-run
// and seed-to-seed spread, see README.md "Steadiness".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"time_to_model_s", "s", "lower", 0.25},
	{"sim_time_to_model_s", "sim_s", "lower", 0.10},
	{"sim_optimizer_overhead_share", "ratio", "lower", 0.25},
	{"pick_regret", "ratio", "lower", 0.01},
	{"iter_estimate_err", "abs_ln", "lower", 0.01},
	{"predict_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// spanLayers are the layers a workload's spans are attributed to; the traced
// run prints each one's share of the unit of work's wall time as
// span.share.<layer>.
var spanLayers = []string{"lang", "data", "storage", "planner", "estimator", "engine", "model", "metrics", "serve", "fault"}

// perLayer are the single-layer metrics the traced run prints: first the
// workload's own span arithmetic, then the timings of layers.go and
// layers_serve.go. They carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ratio", "trace_overhead_share")
	add("higher", "ratio", "span.coverage")
	for _, l := range spanLayers {
		add("lower", "ratio", "span.share."+l)
	}
	add("lower", "ratio", "planner.wall_share")

	add("lower", "us", "lang.parse_us")
	add("higher", "MB/s", "data.read_csv_mb_per_s", "data.read_libsvm_mb_per_s")
	add("lower", "count", "data.read_allocs_per_krow")
	add("lower", "ms", "data.fingerprint_ms")
	add("lower", "ns", "data.predict_parse_ns_per_row")
	add("lower", "ms", "storage.build_ms")
	add("lower", "us", "storage.shards_us")

	for _, a := range []string{"bgd", "mgd", "sgd"} {
		add("lower", "ms", "estimator.speculate_ms."+a)
		add("lower", "count", "estimator.spec_iters."+a)
	}
	add("lower", "us", "estimator.fit_us")
	add("lower", "ms", "planner.choose_ms")
	add("lower", "us", "planner.cost_all_us")
	add("lower", "ns", "costmodel.plan_cost_ns")
	add("lower", "ratio", "planner.pick_regret_seeded")
	add("lower", "abs_ln", "estimator.iter_err_seeded")
	add("lower", "us", "cluster.run_waves_us")
	for _, k := range []string{"bernoulli", "random", "shuffle"} {
		add("lower", "ns", "sampling.draw_ns_per_row."+k)
	}

	add("lower", "ms", "engine.new_trainer_ms")
	for _, s := range []string{"bgd_dense", "bgd_sparse", "mgd", "sgd"} {
		add("lower", "us", "engine.step_us."+s+".p50", "engine.step_us."+s+".p99")
	}
	for _, l := range []string{"dense", "sparse"} {
		add("higher", "rows/s", "engine.rows_per_s."+l+".exact", "engine.rows_per_s."+l+".fast")
	}
	add("higher", "Gflop/s", "engine.gflops")
	add("higher", "GB/s", "engine.gb_per_s")
	add("higher", "ratio", "engine.roofline_frac", "engine.parallel_efficiency")
	add("lower", "count", "engine.step_allocs")
	add("lower", "us", "engine.checkpoint_us")
	add("lower", "bytes", "engine.checkpoint_bytes")
	add("lower", "ms", "engine.resume_ms")
	add("lower", "ns", "engine.observer_tax_ns")

	for _, g := range []string{"hinge", "logistic", "lsq"} {
		for _, t := range []string{"exact", "fast"} {
			add("lower", "ns", "gradients.block_ns_per_row."+g+"."+t+".dense", "gradients.block_ns_per_row."+g+"."+t+".csr")
		}
	}
	add("lower", "ns", "linalg.dense_margins_ns_per_row.exact", "linalg.dense_margins_ns_per_row.fast",
		"linalg.csr_margins_ns_per_row.exact", "linalg.csr_margins_ns_per_row.fast",
		"linalg.dense_accum_ns_per_row.fast", "linalg.exp_ns_per_elem.fast")
	add("lower", "us", "linalg.reduce_tree_us")
	add("higher", "GB/s", "linalg.stream_gb_per_s")
	for _, l := range []string{"dense", "csr"} {
		add("lower", "ns", "metrics.scores_ns_per_row."+l+".exact", "metrics.scores_ns_per_row."+l+".fast")
	}
	add("lower", "ms", "metrics.evaluate_ms")

	add("lower", "us", "serve.predictor_us.p50", "serve.predictor_us.p99", "serve.http_overhead_us")
	add("higher", "rows", "serve.rows_per_pass")
	add("lower", "count", "serve.kernel_passes", "serve.predict_allocs_per_op")
	add("lower", "ratio", "serve.admission_rejected_share")
	add("lower", "ms", "serve.submit_ms", "serve.queue_wait_ms", "serve.publish_ms", "serve.boot_ms")
	add("lower", "count", "serve.checkpoints_per_job")
	add("higher", "1/s", "serve.rate_ladder_ok_rps")
	add("higher", "rows/s", "serve.rows_per_s")
	add("lower", "us", "serve.quiet_p50_us", "serve.quiet_p99_us", "serve.mixed_p99_us")

	for _, s := range []string{"6k", "48k"} {
		add("lower", "ms", "fault.write_durable_ms."+s+".p50", "fault.write_durable_ms."+s+".p99")
	}
	add("lower", "ms", "obs.ledger_append_ms.n1", "obs.ledger_append_ms.n1000")
	add("lower", "ns", "obs.trace_span_ns", "obs.ring_observe_ns", "obs.eventlog_append_ns")

	add("lower", "us", "loadgen.late_p99_us")
	add("higher", "count", "loadgen.sent", "loadgen.ok")
	return out
}

// workloadWhy is each workload's one-line reason, as BENCHMARK.json carries
// it; the type comments in workloads.go give the long form.
var workloadWhy = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"cold-auto", "fresh System, two files never seen, optimizer free: the pick is SGD, so ingest (data) and plan choice (planner, estimator) are the clock and the engine is idle"},
	{"batch-train", "same data already in the catalog, BGD and MGD pinned, exact and fast tier: nine tenths of the processor time is the gradients and linalg block kernels, under engine steps and speculation; parsing idle"},
	{"plan-sweep", "optimizer plus all 11 plans on three narrow 8 000-row sets, iterations fixed per plan: microsecond SGD and 100-row MGD steps, so per-step cost (sampling, simulator, update), not kernels, is the clock"},
	{"serve-mixed", "training jobs posted to a live server beside an open loop of predicts: fsyncs, publishes and trainers holding every core land on the predict tail, so either side's gain at the other's cost shows"},
}

// benchmarkJSON is BENCHMARK.json as the tables in this file define it.
func benchmarkJSON() map[string]any {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloadWhy,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}
}

// benchmarkFile is the text of BENCHMARK.json.
func benchmarkFile() ([]byte, error) {
	raw, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
	return append(raw, '\n'), err
}

// checkSpecFile refuses to run when the BENCHMARK.json of the working
// directory — the repository root, where the driver and run.sh start the
// program — is not the one these tables generate: the driver would then gate
// on names, units or bounds the program does not print. bench/ is a module of
// its own that the root module's tests do not reach, so this check, made on
// every run, is what keeps the two in step; spec_test.go makes it too.
func checkSpecFile() error {
	got, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil // started from somewhere else
	}
	if err != nil {
		return err
	}
	want, err := benchmarkFile()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("BENCHMARK.json is out of step with bench/spec.go; regenerate it with: cd bench && go test -run TestBenchmarkJSON -update")
	}
	return nil
}
