package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go")

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the file is
// generated from spec.go's tables (go test -run TestBenchmarkJSON -update),
// and this test fails when either side changes alone.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of step with spec.go; regenerate it with: go test -run TestBenchmarkJSON -update", path)
	}
}

// TestSpecWithinContract checks the limits the benchmark contract puts on
// BENCHMARK.json, so a table edit that breaks one fails here and not in the
// driver.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		t.Helper()
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1-16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1-128", n)
	}
	if n := len(workloadWhy); n < 2 || n > 8 || n != len(workloadNames) {
		t.Errorf("%d workloads described, %d run", n, len(workloadNames))
	}
	for i, w := range workloadWhy {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name out of order or malformed, or why longer than 200 (%d)", w.Name, len(w.Why))
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", runSeconds)
	}
}
