package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Scheduling properties of RunWaves: for any task multiset, the makespan is
// bounded below by both the longest task and the perfectly-balanced load
// (sum/cap), and bounded above by the greedy 2-approximation guarantee
// (sum/cap + longest). Jitter is disabled so the bounds are exact.

func TestRunWavesMakespanBoundsProperty(t *testing.T) {
	cfgGen := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(11)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(60)
			tasks := make([]Seconds, n)
			for i := range tasks {
				tasks[i] = Seconds(r.Float64()*10 + 0.01)
			}
			vals[0] = reflect.ValueOf(tasks)
		},
	}
	cfg := Default()
	cfg.JitterFrac = 0
	cfg.WaveOverheadSec = 0
	capN := float64(cfg.Cap())

	f := func(tasks []Seconds) bool {
		s := New(cfg)
		makespan := float64(s.RunWaves(tasks))
		var sum, longest float64
		for _, tk := range tasks {
			sum += float64(tk)
			if float64(tk) > longest {
				longest = float64(tk)
			}
		}
		lower := longest
		if sum/capN > lower {
			lower = sum / capN
		}
		upper := sum/capN + longest
		return makespan >= lower-1e-9 && makespan <= upper+1e-9
	}
	if err := quick.Check(f, cfgGen); err != nil {
		t.Fatal(err)
	}
}

// TestRunWavesMonotoneInTasksProperty: adding a task never shrinks the
// makespan.
func TestRunWavesMonotoneInTasksProperty(t *testing.T) {
	cfg := Default()
	cfg.JitterFrac = 0
	cfg.WaveOverheadSec = 0
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(40)
		tasks := make([]Seconds, n)
		for i := range tasks {
			tasks[i] = Seconds(r.Float64() * 5)
		}
		a := New(cfg)
		base := a.RunWaves(tasks)
		b := New(cfg)
		grown := b.RunWaves(append(append([]Seconds{}, tasks...), Seconds(r.Float64()*5)))
		if grown < base-1e-9 {
			t.Fatalf("makespan shrank when adding a task: %g -> %g", base, grown)
		}
	}
}

// TestClockNeverRewindsProperty: any interleaving of simulator operations
// only moves the clock forward.
func TestClockNeverRewindsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New(Default())
		prev := s.Now()
		for _, op := range ops {
			switch op % 5 {
			case 0:
				s.RunLocal(Seconds(op) / 100)
			case 1:
				s.RunWaves([]Seconds{Seconds(op) / 50})
			case 2:
				s.Transfer(int64(op)*100, 1)
			case 3:
				s.JobInit()
			case 4:
				s.CostCPU(RowTier, int(op), float64(op)) // cost-only: no advance needed, but must not rewind
			}
			if s.Now() < prev {
				return false
			}
			prev = s.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}
