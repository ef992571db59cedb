// Command bench is the repository's benchmark: four workloads that take the
// system from a submitted script to a trained, published model answering
// predictions, measured end to end and — in a separate traced run — layer by
// layer. BENCHMARK.json at the repository root describes it; README.md in
// this directory says what every number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	out        string
	repeat     int
	breakCheck bool
}

// boolNum is a boolean flag that takes its value as a separate argument
// ("--trace 1"), which is how the benchmark driver passes it; the flag
// package's own bool flags only accept "-trace=1".
type boolNum bool

func (b *boolNum) String() string { return fmt.Sprint(bool(*b)) }
func (b *boolNum) Set(s string) error {
	switch s {
	case "1", "true":
		*b = true
	case "0", "false":
		*b = false
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

func main() {
	var o options
	var trace boolNum
	flag.StringVar(&o.workload, "workload", "all", "workload to run: cold-auto, batch-train, plan-sweep, serve-mixed, or all (each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds one run measures")
	flag.Var(&trace, "trace", "1 makes the traced run that yields the per-layer metrics; 0 the end-to-end run")
	flag.StringVar(&o.out, "out", "out", "directory for generated data, server state, reports and span files")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole suite this many times and compare the medians against each metric's bound")
	flag.BoolVar(&o.breakCheck, "break-check", false, "self-test: corrupt one expected predict score; the run must then fail")
	loadgen := flag.String("loadgen", "", "internal: run as the load-generator process a workload starts, with this JSON spec")
	flag.Parse()
	o.trace = bool(trace)

	err := checkSpecFile()
	switch {
	case err != nil:
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *loadgen != "":
		err = loadgenMain(*loadgen)
	case o.repeat > 1 || o.workload == "all":
		err = runSuite(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its result line last.
func runOne(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %g", o.seconds)
	}
	procs := defaultProcs()
	runtime.GOMAXPROCS(procs)
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	out, err := filepath.Abs(o.out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rc := &runCtx{name: o.workload, seed: o.seed, procs: procs, seconds: o.seconds, outDir: out, breakCheck: o.breakCheck}

	var rep *report
	defs := endToEnd
	if o.trace {
		defs = perLayer
		rep, err = runTraced(rc, w)
	} else {
		rep, err = runEndToEnd(rc, w)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}

	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  procs %d  %s  fast backend %s  state dir on %s\n",
		o.workload, o.seed, procs, rep.Env.GoVersion, rep.Env.FastBackend, rep.Env.StateDirFS)
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (a phase shorter than one whole second measures nothing: raise -seconds)", o.workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		samples := ""
		if n := rep.Samples[d.Name]; n > 0 {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("  %-44s %16.6g %-8s%s\n", d.Name, v, d.Unit, samples)
	}
	for _, f := range rep.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, w := range rep.Warnings {
		fmt.Println("  WARNING:", w)
	}

	suffix := ""
	if o.trace {
		suffix = "-trace"
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d%s.json", o.workload, o.seed, suffix))
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Println("  report:", path)

	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d checks failed", o.workload, rep.Failed, rep.Attempted)
	}
	return nil
}
