package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ml4all/internal/baselines"
	"ml4all/internal/cluster"
	"ml4all/internal/engine"
	"ml4all/internal/synth"
)

func TestRegistryComplete(t *testing.T) {
	// Every figure/table DESIGN.md promises must be registered.
	want := []string{
		"fig1", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"table2", "table4", "ablation-speculation", "ablation-placement",
		"ablation-tuner", "adaptive",
	}
	for _, id := range want {
		if _, ok := All[id]; !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(All), len(want))
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Config{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != DefaultScale || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestScaledClusterAndLayout(t *testing.T) {
	base := ClusterFor(synth.DefaultScale)
	quarter := ClusterFor(synth.DefaultScale * 4)
	if quarter.CacheBytes*4 != base.CacheBytes {
		t.Fatalf("cache scaling: %d vs %d", quarter.CacheBytes, base.CacheBytes)
	}
	lb := LayoutFor(synth.DefaultScale)
	lq := LayoutFor(synth.DefaultScale * 4)
	if lq.PartitionBytes*4 != lb.PartitionBytes {
		t.Fatalf("partition scaling: %d vs %d", lq.PartitionBytes, lb.PartitionBytes)
	}
	// Cost constants must NOT scale — they encode the data scale already.
	if base.FlopSec != quarter.FlopSec {
		t.Fatal("per-unit costs changed with scale")
	}
}

func TestDatasetMemoization(t *testing.T) {
	cfg := Config{Scale: 2048, Seed: 1} // tiny
	a, err := cfg.Dataset("adult")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Dataset("adult")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not memoized")
	}
	if _, err := cfg.Dataset("nonsense"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "longheader"}}
	r.Add("v1", 3.14159)
	r.Add(cluster.Seconds(2.5), 7)
	r.Note("hello %d", 42)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: T ==", "longheader", "3.14", "2.5", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestLambdaForTasks(t *testing.T) {
	ds, err := Config{Scale: 2048}.Dataset("adult")
	if err != nil {
		t.Fatal(err)
	}
	p := ParamsFor(ds, 0.01, 100)
	if p.Lambda == 0 {
		t.Fatal("logistic dataset should train regularized")
	}
	if p.Tolerance != 0.01 || p.MaxIter != 100 {
		t.Fatalf("params = %+v", p)
	}
}

// TestEveryRunnerEndToEnd runs all 21 experiments the way `ml4all-bench -exp
// all -quick` does, in one process, and then counts what the seven sweep
// figures (fig8, fig9, fig13, fig14, fig17, fig18, table4) cost together: one
// sweep per dataset — one planner.Choose, eleven fresh-simulator runs and the
// chosen plan once on the optimizer's clock. A sweep is computed only on a
// memo miss and every miss stores its result, so the number of memo entries
// is the number of sweeps computed.
func TestEveryRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (~45s)")
	}
	cfg := Config{Scale: 1024, Quick: true, Seed: 1}
	for _, id := range IDs() {
		rep, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s: empty report", id)
		}
		if rep.ID != id {
			t.Fatalf("%s: report claims to be %s", id, rep.ID)
		}
	}

	sweepMu.Lock()
	defer sweepMu.Unlock()
	var swept []string
	for key, sw := range sweepCache {
		if !strings.Contains(key, "@1024/") {
			continue // another test's scale
		}
		swept = append(swept, key)
		if len(sw.runs) != 11 {
			t.Errorf("%s: %d plan runs, want 11", key, len(sw.runs))
		}
	}
	slices.Sort(swept)
	want := []string{"adult@1024/seed=1", "covtype@1024/seed=1",
		"rcv1@1024/seed=1", "svm1@1024/seed=1"}
	if !slices.Equal(swept, want) {
		t.Errorf("sweeps computed = %v, want one per quick dataset %v", swept, want)
	}
}

// TestBaselineCellFailsOnUnexpectedError: out of memory is a result the
// comparison figures print as "OOM"; any other baseline error must fail the
// experiment instead of turning into a cell.
func TestBaselineCellFailsOnUnexpectedError(t *testing.T) {
	oom := func() (*baselines.Result, error) {
		return nil, fmt.Errorf("systemml on svm3: %w", baselines.ErrOutOfMemory)
	}
	if c, err := runBaselineCell(oom); err != nil || c.String() != "OOM" {
		t.Fatalf("OOM baseline: cell %q, err %v; want an OOM cell", c, err)
	}
	boom := errors.New("baseline exploded")
	if _, err := runBaselineCell(func() (*baselines.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing baseline: err %v, want %v", err, boom)
	}
	c, err := runBaselineCell(func() (*baselines.Result, error) { return &baselines.Result{Result: &engine.Result{Time: 12.34}}, nil })
	if err != nil || c.String() != "12.3" {
		t.Fatalf("measured baseline: cell %q, err %v; want 12.3", c, err)
	}
}
