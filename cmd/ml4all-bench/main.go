// Command ml4all-bench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	ml4all-bench -list
//	ml4all-bench -exp fig8
//	ml4all-bench -exp all -scale 64        # reference scale, paper-magnitude times
//	ml4all-bench -exp fig9 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ml4all/internal/experiments"
)

func main() {
	// All work happens in run so that deferred profile flushes execute on
	// every exit path — os.Exit here, after run returns, skips no defers.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	scale := flag.Int("scale", experiments.DefaultScale, "dataset scale divisor (64 = paper-magnitude times)")
	quick := flag.Bool("quick", false, "restrict sweeps to a representative subset")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS, 1 = serial; results are identical, only wall time changes)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile to this file after the runs")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:", strings.Join(experiments.IDs(), " "))
		if *exp == "" {
			return 2
		}
		return 0
	}

	// Profiling hooks so hot-path regressions (the blocked compute kernels
	// in particular) are diagnosable on any experiment without editing code.
	// The deferred flushes run even when an experiment fails, so a partial
	// CPU profile of the failing run survives:
	//
	//	ml4all-bench -exp fig7a -cpuprofile cpu.out -memprofile mem.out
	//	go tool pprof cpu.out
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ml4all-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ml4all-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ml4all-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush pending frees so the profile shows live + allocated truthfully
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ml4all-bench:", err)
			}
		}()
	}

	cfg := experiments.Config{Scale: *scale, Quick: *quick, Seed: *seed, Workers: *workers}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ml4all-bench: %s: %v\n", id, err)
			return 1
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ml4all-bench:", err)
			return 1
		}
		fmt.Printf("(%s finished in %.1fs wall)\n\n", id, time.Since(start).Seconds())
	}
	return 0
}
