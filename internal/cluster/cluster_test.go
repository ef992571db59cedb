package cluster

import (
	"math"
	"testing"

	"ml4all/internal/storage"
)

func testConfig() Config {
	c := Default()
	c.JitterFrac = 0 // deterministic costs for exact assertions
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := Default()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = Default()
	bad.JitterFrac = 1
	if err := bad.Validate(); err == nil {
		t.Error("jitter 1.0 accepted")
	}
	bad = Default()
	bad.PacketBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero packet accepted")
	}
}

func TestCapAndExecutors(t *testing.T) {
	c := Default()
	if c.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16 (paper cluster)", c.Cap())
	}
	if c.Executors() != 4 {
		t.Fatalf("Executors = %d, want 4", c.Executors())
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid config")
		}
	}()
	bad := Default()
	bad.Nodes = -1
	New(bad)
}

func TestAdvanceAndReset(t *testing.T) {
	s := New(testConfig())
	s.Advance(1.5)
	if s.Now() != 1.5 {
		t.Fatalf("Now = %g, want 1.5", s.Now())
	}
	s.Reset()
	if s.Now() != 0 || s.Acct.Tasks != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance accepted")
		}
	}()
	New(testConfig()).Advance(-1)
}

func TestJobInit(t *testing.T) {
	s := New(testConfig())
	s.JobInit()
	if s.Now() != s.Cfg.JobInitSec || s.Acct.Jobs != 1 {
		t.Fatalf("JobInit: now=%g jobs=%d", s.Now(), s.Acct.Jobs)
	}
}

func TestCostReadPartitionCachesAndHits(t *testing.T) {
	s := New(testConfig())
	p := storage.Partition{ID: 3, Bytes: 4096}
	l := storage.Layout{PartitionBytes: 1 << 20, PageBytes: 1024}

	cold := s.CostReadPartition(p, l)
	wantCold := s.Cfg.SeekSec + 4*s.Cfg.DiskPageSec
	if math.Abs(float64(cold-wantCold)) > 1e-12 {
		t.Fatalf("cold read = %g, want %g", cold, wantCold)
	}
	warm := s.CostReadPartition(p, l)
	wantWarm := s.Cfg.SeekSec + 4*s.Cfg.MemPageSec
	if math.Abs(float64(warm-wantWarm)) > 1e-12 {
		t.Fatalf("warm read = %g, want %g", warm, wantWarm)
	}
	if warm >= cold {
		t.Fatal("cache hit not cheaper than disk")
	}
	if s.Acct.DiskPages != 4 || s.Acct.MemPages != 4 || s.Acct.Seeks != 2 {
		t.Fatalf("accounting: %+v", s.Acct)
	}
}

func TestCostReadBytesDoesNotAdmit(t *testing.T) {
	s := New(testConfig())
	p := storage.Partition{ID: 9, Bytes: 8192}
	l := storage.Layout{PartitionBytes: 1 << 20, PageBytes: 1024}
	s.CostReadBytes(p, l, 100) // random access, one page
	if s.Cache.Peek(9) {
		t.Fatal("random access admitted partition to cache")
	}
	// Reading more bytes than the partition holds is clamped.
	c := s.CostReadBytes(p, l, 1<<30)
	want := s.Cfg.SeekSec + 8*s.Cfg.DiskPageSec
	if math.Abs(float64(c-want)) > 1e-12 {
		t.Fatalf("clamped read = %g, want %g", c, want)
	}
}

func TestCostCPUAndParse(t *testing.T) {
	s := New(testConfig())
	c := s.CostCPU(RowTier, 10, 1000)
	want := 1000*s.Cfg.FlopSec + 10*s.Cfg.UnitOverheadSec
	if math.Abs(float64(c-want)) > 1e-15 {
		t.Fatalf("CostCPU = %g, want %g", c, want)
	}
	p := s.CostParse(5, 2000)
	wantP := 2000*s.Cfg.ParseByteSec + 5*s.Cfg.UnitOverheadSec
	if math.Abs(float64(p-wantP)) > 1e-15 {
		t.Fatalf("CostParse = %g, want %g", p, wantP)
	}
	if s.Acct.UnitsSeen != 15 {
		t.Fatalf("UnitsSeen = %d, want 15", s.Acct.UnitsSeen)
	}
}

func TestRunWavesMakespan(t *testing.T) {
	cfg := testConfig()
	cfg.WaveOverheadSec = 0
	s := New(cfg)
	// 16 equal tasks on 16 cores: makespan == one task.
	tasks := make([]Seconds, 16)
	for i := range tasks {
		tasks[i] = 2
	}
	if got := s.RunWaves(tasks); math.Abs(float64(got-2)) > 1e-12 {
		t.Fatalf("16 tasks on 16 cores: makespan = %g, want 2", got)
	}
	// 17 tasks: two waves worth of the long pole.
	s.Reset()
	tasks = append(tasks, Seconds(2))
	if got := s.RunWaves(tasks); math.Abs(float64(got-4)) > 1e-12 {
		t.Fatalf("17 tasks: makespan = %g, want 4", got)
	}
	if s.Acct.Waves != 2 || s.Acct.Tasks != 17 {
		t.Fatalf("accounting: %+v", s.Acct)
	}
}

func TestRunWavesChargesWaveOverhead(t *testing.T) {
	cfg := testConfig()
	cfg.WaveOverheadSec = 1
	s := New(cfg)
	got := s.RunWaves([]Seconds{1}) // one wave
	if math.Abs(float64(got-2)) > 1e-12 {
		t.Fatalf("makespan = %g, want 1 task + 1 overhead", got)
	}
}

func TestRunWavesEmpty(t *testing.T) {
	s := New(testConfig())
	if got := s.RunWaves(nil); got != 0 {
		t.Fatalf("empty waves = %g, want 0", got)
	}
}

func TestRunLocal(t *testing.T) {
	s := New(testConfig())
	got := s.RunLocal(3)
	if math.Abs(float64(got-3)) > 1e-12 || s.Now() != got {
		t.Fatalf("RunLocal = %g now=%g", got, s.Now())
	}
}

func TestTransfer(t *testing.T) {
	s := New(testConfig())
	got := s.Transfer(2048, 2)
	want := Seconds(2048/s.Cfg.NetBytePerSec) + 2*s.Cfg.PacketLatencySec
	if math.Abs(float64(got-want)) > 1e-15 {
		t.Fatalf("Transfer = %g, want %g", got, want)
	}
	if s.Acct.NetBytes != 2048 || s.Acct.Packets != 2 {
		t.Fatalf("accounting: %+v", s.Acct)
	}
	if s.Transfer(0, 1) != 0 {
		t.Fatal("zero-byte transfer charged")
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	cfg := Default() // jitter on
	a, b := New(cfg), New(cfg)
	ta := a.RunWaves([]Seconds{1, 2, 3})
	tb := b.RunWaves([]Seconds{1, 2, 3})
	if ta != tb {
		t.Fatalf("same seed, different makespans: %g vs %g", ta, tb)
	}
	cfg2 := cfg
	cfg2.Seed = 999
	c := New(cfg2)
	if tc := c.RunWaves([]Seconds{1, 2, 3}); tc == ta {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
}

func TestJitterBounded(t *testing.T) {
	cfg := Default()
	s := New(cfg)
	for i := 0; i < 100; i++ {
		got := s.RunLocal(1)
		if got < 1 || got > Seconds(1+cfg.JitterFrac) {
			t.Fatalf("jittered cost %g outside [1, %g]", got, 1+cfg.JitterFrac)
		}
	}
}
