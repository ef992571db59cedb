package storage

import (
	"fmt"
	"testing"

	"ml4all/internal/data"
)

func shardTestStore(t *testing.T, n int, partBytes int64) *Store {
	t.Helper()
	raws := make([]string, n)
	for i := range raws {
		raws[i] = fmt.Sprintf("1,%d,2,3", i)
	}
	m, err := data.ParseMatrix(raws, data.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(data.FromMatrix("shards", data.TaskSVM, m), Layout{PartitionBytes: partBytes, PageBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardsCoverStoreExactly: shards tile the unit range with no gaps,
// overlaps, or partition straddling.
func TestShardsCoverStoreExactly(t *testing.T) {
	st := shardTestStore(t, 500, 512)
	if st.NumPartitions() < 2 {
		t.Fatalf("want several partitions, got %d", st.NumPartitions())
	}
	for _, maxUnits := range []int{0, 1, 7, 64, 10000} {
		shards := st.Shards(maxUnits)
		next := 0
		for i, sh := range shards {
			if sh.ID != i {
				t.Fatalf("maxUnits=%d: shard %d has ID %d", maxUnits, i, sh.ID)
			}
			if sh.Lo != next {
				t.Fatalf("maxUnits=%d: shard %d starts at %d, want %d", maxUnits, i, sh.Lo, next)
			}
			if sh.Units() <= 0 {
				t.Fatalf("maxUnits=%d: empty shard %d", maxUnits, i)
			}
			if maxUnits > 0 && sh.Units() > maxUnits {
				t.Fatalf("maxUnits=%d: shard %d holds %d units", maxUnits, i, sh.Units())
			}
			if sh.Lo < sh.Part.Lo || sh.Hi > sh.Part.Hi {
				t.Fatalf("maxUnits=%d: shard %d [%d,%d) straddles partition [%d,%d)",
					maxUnits, i, sh.Lo, sh.Hi, sh.Part.Lo, sh.Part.Hi)
			}
			next = sh.Hi
		}
		if next != st.Dataset.N() {
			t.Fatalf("maxUnits=%d: shards cover %d of %d units", maxUnits, next, st.Dataset.N())
		}
	}
}

// TestShardsStable: the same store and chunk size always produce the same
// boundaries — the property the engine's determinism guarantee rests on.
func TestShardsStable(t *testing.T) {
	st := shardTestStore(t, 300, 512)
	a, b := st.Shards(16), st.Shards(16)
	if len(a) != len(b) {
		t.Fatalf("shard counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestShardsEmptyStore(t *testing.T) {
	ds := data.FromMatrix("empty", data.TaskSVM, data.NewMatrixBuilder(0, 0).Build())
	st, err := Build(ds, DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Shards(8); len(got) != 0 {
		t.Fatalf("empty store produced %d shards", len(got))
	}
}

// TestShardAndPartitionRowViews pins the zero-copy arena handout: the rows a
// partition or shard view serves must be bitwise-identical to indexing the
// dataset matrix directly, with no copying (a base label write is visible
// through the view).
func TestShardAndPartitionRowViews(t *testing.T) {
	st := shardTestStore(t, 500, 2<<10)
	ds := st.Dataset
	for _, p := range st.Partitions {
		rows := st.Rows(p)
		if rows.NumRows() != p.Units() {
			t.Fatalf("partition %d view has %d rows, want %d", p.ID, rows.NumRows(), p.Units())
		}
		for k := 0; k < rows.NumRows(); k++ {
			if !data.RowsEqual(rows.Row(k), ds.Row(p.Lo+k)) {
				t.Fatalf("partition %d row %d diverges from base", p.ID, k)
			}
		}
	}
	for _, sh := range st.Shards(64) {
		rows := sh.Rows(ds.Mat)
		if rows.NumRows() != sh.Units() {
			t.Fatalf("shard %d view has %d rows, want %d", sh.ID, rows.NumRows(), sh.Units())
		}
		if !data.RowsEqual(rows.Row(0), ds.Row(sh.Lo)) {
			t.Fatalf("shard %d first row diverges from base", sh.ID)
		}
	}
	// Zero-copy: the views alias the arena, they do not hold copies.
	view := st.Rows(st.Partitions[0])
	ds.Mat.SetLabel(st.Partitions[0].Lo, 424242)
	if view.Row(0).Label != 424242 {
		t.Fatal("partition view did not observe base label write — rows were copied")
	}
}
