package experiments

import (
	"math"
	"testing"

	"ml4all/internal/gd"
	"ml4all/internal/gradients"
	"ml4all/internal/step"
	"ml4all/internal/storage"
	"ml4all/internal/synth"
)

// exploding is a step no run survives.
var exploding = step.Constant{Value: 1e6}

// speculateOnCovtype runs ablation-tuner's pick over cands on a small
// covtype cut.
func speculateOnCovtype(t *testing.T, cands []step.Size) ([]stepTrial, int, error) {
	t.Helper()
	spec, err := synth.ByName("covtype", 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.N = 3000
	ds := synth.MustGenerate(spec)
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	plan := gd.NewBGD(gd.Params{Task: ds.Task, Format: ds.Format, Tolerance: 0.01, MaxIter: 1000, Lambda: 0.01})
	g, reg := gradients.ForTask(ds.Task), gradients.L2{Lambda: 0.01}
	return speculateSteps(Config{Seed: 2, Workers: 1}, plan, st, g, reg, cands)
}

// TestSpeculateStepsRanksDivergentLast: an exploding step is reported
// diverged, scores +Inf, and is never picked even when it comes first.
func TestSpeculateStepsRanksDivergentLast(t *testing.T) {
	trials, best, err := speculateOnCovtype(t, []step.Size{exploding, step.InvSqrt{Beta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !trials[0].est.Diverged {
		t.Fatal("the exploding step did not diverge")
	}
	if !math.IsInf(trials[0].objective, 1) {
		t.Fatalf("diverged run scored %g, want +Inf", trials[0].objective)
	}
	if best != 1 {
		t.Fatalf("picked %s, want %s", trials[best].step.Name(), trials[1].step.Name())
	}
}

// TestSpeculateStepsPrefersFasterConvergence: a crawling β = 0.001 loses to
// β = 1 on objective.
func TestSpeculateStepsPrefersFasterConvergence(t *testing.T) {
	trials, best, err := speculateOnCovtype(t, []step.Size{step.InvSqrt{Beta: 0.001}, step.InvSqrt{Beta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 {
		t.Fatalf("picked %s, want %s", trials[best].step.Name(), trials[1].step.Name())
	}
	if trials[1].objective >= trials[0].objective {
		t.Fatalf("beta=1 objective %g does not beat beta=0.001's %g", trials[1].objective, trials[0].objective)
	}
}

// TestSpeculateStepsDefaultGrid: the ablation's grid yields one trial per
// candidate, in order, and every speculation consumed time.
func TestSpeculateStepsDefaultGrid(t *testing.T) {
	grid := stepGrid()
	if len(grid) != 7 {
		t.Fatalf("grid has %d candidates, want 7", len(grid))
	}
	trials, _, err := speculateOnCovtype(t, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != len(grid) {
		t.Fatalf("trials = %d, want %d", len(trials), len(grid))
	}
	for i, tr := range trials {
		if tr.step.Name() != grid[i].Name() {
			t.Fatalf("trial %d is %s, want %s", i, tr.step.Name(), grid[i].Name())
		}
		if tr.est.SpecTime <= 0 {
			t.Fatalf("%s: speculation consumed no time", tr.step.Name())
		}
	}
}

// TestSpeculateStepsBestReturnsUsableStep: the grid's winner is a converging
// run with a positive step, and a grid with nothing but diverging runs is an
// error.
func TestSpeculateStepsBestReturnsUsableStep(t *testing.T) {
	trials, best, err := speculateOnCovtype(t, stepGrid())
	if err != nil {
		t.Fatal(err)
	}
	if trials[best].est.Diverged {
		t.Fatalf("picked %s, which diverged", trials[best].step.Name())
	}
	if a := trials[best].step.Alpha(10); a <= 0 {
		t.Fatalf("winner %s yields non-positive step %g", trials[best].step.Name(), a)
	}

	if _, _, err := speculateOnCovtype(t, []step.Size{exploding}); err == nil {
		t.Fatal("a grid whose every run diverged picked a step")
	}
}
