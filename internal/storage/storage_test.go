package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ml4all/internal/data"
)

// oneFeatureDataset builds n sparse rows of one stored value each: row i has
// the given label and val at feature i%mod.
func oneFeatureDataset(t *testing.T, name string, n, mod int, label, val float64) *data.Dataset {
	t.Helper()
	b := data.NewMatrixBuilder(n, n)
	for i := 0; i < n; i++ {
		if err := b.AppendSparse(label, []int32{int32(i % mod)}, []float64{val}); err != nil {
			t.Fatal(err)
		}
	}
	return data.FromMatrix(name, data.TaskSVM, b.Build())
}

func toyDataset(t *testing.T, n int) *data.Dataset {
	return oneFeatureDataset(t, "toy", n, 10, 1, 1.5)
}

func TestBuildPartitionInvariants(t *testing.T) {
	ds := toyDataset(t, 1000)
	l := Layout{PartitionBytes: 256, PageBytes: 64}
	st, err := Build(ds, l)
	if err != nil {
		t.Fatal(err)
	}
	// Partitions tile [0, n) contiguously.
	next := 0
	var bytes int64
	for i, p := range st.Partitions {
		if p.ID != i {
			t.Fatalf("partition %d has ID %d", i, p.ID)
		}
		if p.Lo != next {
			t.Fatalf("partition %d starts at %d, want %d", i, p.Lo, next)
		}
		if p.Hi <= p.Lo {
			t.Fatalf("partition %d empty: [%d,%d)", i, p.Lo, p.Hi)
		}
		if p.Bytes > l.PartitionBytes && p.Units() > 1 {
			t.Fatalf("partition %d holds %d bytes over limit %d with %d units",
				i, p.Bytes, l.PartitionBytes, p.Units())
		}
		next = p.Hi
		bytes += p.Bytes
	}
	if next != ds.N() {
		t.Fatalf("partitions cover %d units, want %d", next, ds.N())
	}
	if bytes != st.TotalBytes || bytes != ds.SizeBytes() {
		t.Fatalf("byte accounting: partitions=%d store=%d dataset=%d", bytes, st.TotalBytes, ds.SizeBytes())
	}
}

func TestBuildCoverageProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     rand.New(rand.NewSource(31)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(1 + r.Intn(500))
			vals[1] = reflect.ValueOf(64 + r.Intn(1024))
		},
	}
	f := func(n, partBytes int) bool {
		ds := oneFeatureDataset(t, "q", n, 5, -1, 2)
		st, err := Build(ds, Layout{PartitionBytes: int64(partBytes), PageBytes: 32})
		if err != nil {
			return false
		}
		// Every unit index maps to exactly the partition containing it.
		for i := 0; i < n; i++ {
			p, err := st.PartitionOf(i)
			if err != nil || i < p.Lo || i >= p.Hi {
				return false
			}
		}
		return st.Partitions[len(st.Partitions)-1].Hi == n
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadLayouts(t *testing.T) {
	ds := toyDataset(t, 2)
	if _, err := Build(ds, Layout{PartitionBytes: 0, PageBytes: 1}); err == nil {
		t.Error("zero partition size accepted")
	}
	if _, err := Build(ds, Layout{PartitionBytes: 10, PageBytes: 20}); err == nil {
		t.Error("page larger than partition accepted")
	}
}

func TestEmptyDatasetGetsOnePartition(t *testing.T) {
	ds := data.FromMatrix("empty", data.TaskSVM, data.NewMatrixBuilder(0, 0).Build())
	st, err := Build(ds, DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPartitions() != 1 {
		t.Fatalf("partitions = %d, want 1", st.NumPartitions())
	}
}

func TestPartitionPages(t *testing.T) {
	p := Partition{Bytes: 1000}
	l := Layout{PartitionBytes: 4096, PageBytes: 256}
	if got := p.Pages(l); got != 4 {
		t.Fatalf("Pages = %d, want 4 (ceil 1000/256)", got)
	}
}

func TestPartitionOfOutOfRange(t *testing.T) {
	ds := toyDataset(t, 10)
	st, err := Build(ds, DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PartitionOf(10); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestUnitsPerPartition(t *testing.T) {
	ds := toyDataset(t, 100)
	st, err := Build(ds, Layout{PartitionBytes: 128, PageBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	k := st.UnitsPerPartition()
	for _, p := range st.Partitions {
		if p.Units() > k {
			t.Fatalf("partition %d has %d units > k=%d", p.ID, p.Units(), k)
		}
	}
}

// --- Cache ---

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	c.Insert(1, 40)
	c.Insert(2, 40)
	if !c.Peek(1) || !c.Peek(2) {
		t.Fatal("inserted partitions missing")
	}
	// Touch 1 so 2 becomes LRU, then insert 3 forcing eviction of 2.
	if !c.Contains(1) {
		t.Fatal("Contains(1) = false")
	}
	c.Insert(3, 40)
	if !c.Peek(1) || c.Peek(2) || !c.Peek(3) {
		t.Fatalf("LRU eviction wrong: 1=%v 2=%v 3=%v", c.Peek(1), c.Peek(2), c.Peek(3))
	}
	if c.Used() != 80 {
		t.Fatalf("Used = %d, want 80", c.Used())
	}
}

func TestCacheOversizedNotAdmitted(t *testing.T) {
	c := NewCache(10)
	c.Insert(1, 100)
	if c.Peek(1) || c.Used() != 0 {
		t.Fatal("oversized partition admitted")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(100)
	c.Contains(1) // miss
	c.Insert(1, 10)
	c.Contains(1) // hit
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(100)
	c.Insert(1, 10)
	c.Contains(1)
	c.Reset()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("Reset left state")
	}
	h, m := c.Stats()
	if h != 0 || m != 0 {
		t.Fatal("Reset left counters")
	}
}

func TestCacheZeroCapacityAllMisses(t *testing.T) {
	c := NewCache(0)
	c.Insert(1, 1)
	if c.Contains(1) {
		t.Fatal("zero-capacity cache held a partition")
	}
}

// TestCacheNeverExceedsCapacityProperty: random workload keeps Used <= Capacity.
func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCache(64)
		for _, op := range ops {
			id := int(op % 16)
			switch {
			case op%3 == 0:
				c.Contains(id)
			default:
				c.Insert(id, int64(op%40)+1)
			}
			if c.Used() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
