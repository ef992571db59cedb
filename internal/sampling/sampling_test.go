package sampling

import (
	"math"
	"math/rand"
	"testing"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
)

func env(t *testing.T, n int, partBytes int64, seed int64) *Env {
	t.Helper()
	b := data.NewMatrixBuilder(n, n)
	for i := 0; i < n; i++ {
		if err := b.AppendSparse(1, []int32{int32(i % 10)}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	ds := data.FromMatrix("s", data.TaskSVM, b.Build())
	st, err := storage.Build(ds, storage.Layout{PartitionBytes: partBytes, PageBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Default()
	cfg.JitterFrac = 0
	return &Env{Sim: cluster.New(cfg), Store: st, RNG: rand.New(rand.NewSource(seed))}
}

func TestNew(t *testing.T) {
	for _, k := range []gd.SamplingKind{gd.Bernoulli, gd.RandomPartition, gd.ShuffledPartition} {
		s, err := New(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if s.Kind() != k {
			t.Fatalf("Kind = %v, want %v", s.Kind(), k)
		}
	}
	if _, err := New(gd.NoSampling); err == nil {
		t.Fatal("NoSampling sampler created")
	}
}

func TestBernoulliDrawCountIsBinomial(t *testing.T) {
	e := env(t, 2000, 1<<10, 1)
	s := &BernoulliSampler{}
	var total int
	const rounds, b = 50, 100
	for i := 0; i < rounds; i++ {
		idx, err := s.Draw(e, b)
		if err != nil {
			t.Fatal(err)
		}
		total += len(idx)
		for _, j := range idx {
			if j < 0 || j >= 2000 {
				t.Fatalf("index %d out of range", j)
			}
		}
	}
	mean := float64(total) / rounds
	if mean < b*0.7 || mean > b*1.3 {
		t.Fatalf("mean draw = %g, want ~%d", mean, b)
	}
}

func TestBernoulliNeverEmpty(t *testing.T) {
	e := env(t, 5000, 1<<10, 2)
	s := &BernoulliSampler{}
	for i := 0; i < 200; i++ {
		idx, err := s.Draw(e, 1) // p = 1/5000: usually empty, must fall back
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) == 0 {
			t.Fatal("empty draw escaped the fallback")
		}
	}
}

func TestBernoulliScansWholeDataset(t *testing.T) {
	e := env(t, 1000, 1<<10, 3)
	before := e.Sim.Acct.Seeks
	if _, err := (&BernoulliSampler{}).Draw(e, 10); err != nil {
		t.Fatal(err)
	}
	scanned := e.Sim.Acct.Seeks - before
	if scanned != int64(e.Store.NumPartitions()) {
		t.Fatalf("Bernoulli touched %d partitions, want all %d", scanned, e.Store.NumPartitions())
	}
}

func TestRandomPartitionDrawExactCount(t *testing.T) {
	e := env(t, 1000, 1<<10, 4)
	idx, err := (&RandomPartitionSampler{}).Draw(e, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 64 {
		t.Fatalf("draw = %d, want 64", len(idx))
	}
	if e.Sim.Acct.Seeks < 64 {
		t.Fatalf("random-partition charged %d seeks, want >= one per draw", e.Sim.Acct.Seeks)
	}
}

func TestShuffledPartitionCoversPartitionBeforeRefill(t *testing.T) {
	// With a single partition, the first n draws must be a permutation of
	// all unit indices (sampling without replacement within the shuffle).
	e := env(t, 100, 1<<20, 5)
	if e.Store.NumPartitions() != 1 {
		t.Fatalf("want single partition, got %d", e.Store.NumPartitions())
	}
	s := &ShuffledPartitionSampler{}
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		idx, err := s.Draw(e, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range idx {
			if seen[j] {
				t.Fatalf("index %d served twice within one shuffle epoch", j)
			}
			seen[j] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("epoch covered %d units, want 100", len(seen))
	}
}

func TestShuffledPartitionRefills(t *testing.T) {
	e := env(t, 60, 1<<20, 6)
	s := &ShuffledPartitionSampler{}
	idx, err := s.Draw(e, 100) // more than one partition holds
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 100 {
		t.Fatalf("draw = %d, want 100 (refill required)", len(idx))
	}
}

func TestShuffledCheaperThanBernoulliPerDraw(t *testing.T) {
	// On a multi-partition dataset the steady-state per-draw cost of
	// shuffled-partition must beat Bernoulli's full scan — the core claim
	// behind the Section 6 sampling optimization.
	mkEnv := func(seed int64) *Env { return env(t, 5000, 1<<10, seed) }

	eb := mkEnv(7)
	bs := &BernoulliSampler{}
	start := eb.Sim.Now()
	for i := 0; i < 20; i++ {
		if _, err := bs.Draw(eb, 10); err != nil {
			t.Fatal(err)
		}
	}
	bernoulliTime := eb.Sim.Now() - start

	es := mkEnv(7)
	ss := &ShuffledPartitionSampler{}
	start = es.Sim.Now()
	for i := 0; i < 20; i++ {
		if _, err := ss.Draw(es, 10); err != nil {
			t.Fatal(err)
		}
	}
	shuffledTime := es.Sim.Now() - start

	if shuffledTime >= bernoulliTime {
		t.Fatalf("shuffled (%g) not cheaper than bernoulli (%g)", shuffledTime, bernoulliTime)
	}
}

func TestEmptyDatasetErrors(t *testing.T) {
	ds := data.FromMatrix("empty", data.TaskSVM, data.NewMatrixBuilder(0, 0).Build())
	st, err := storage.Build(ds, storage.DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	e := &Env{Sim: cluster.New(cluster.LocalOnly()), Store: st, RNG: rand.New(rand.NewSource(1))}
	for _, k := range []gd.SamplingKind{gd.Bernoulli, gd.RandomPartition, gd.ShuffledPartition} {
		s, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Draw(e, 1); err == nil {
			t.Errorf("%v accepted empty dataset", k)
		}
	}
}

func TestDrawsAreUniformish(t *testing.T) {
	// Random-partition draws over a uniform dataset should hit every
	// partition eventually; a crude chi-square-ish check.
	e := env(t, 1000, 1<<10, 8)
	parts := e.Store.NumPartitions()
	if parts < 4 {
		t.Skip("need several partitions")
	}
	counts := make([]int, parts)
	s := &RandomPartitionSampler{}
	for i := 0; i < 40; i++ {
		idx, err := s.Draw(e, 25)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range idx {
			p, err := e.Store.PartitionOf(j)
			if err != nil {
				t.Fatal(err)
			}
			counts[p.ID]++
		}
	}
	for id, c := range counts {
		expected := 1000.0 / float64(parts)
		if math.Abs(float64(c)-expected) > expected {
			t.Fatalf("partition %d drawn %d times, expected ~%g", id, c, expected)
		}
	}
}
