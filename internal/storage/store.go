// Package storage simulates the storage substrate the paper's cost model is
// written against: datasets chunked into fixed-size horizontal partitions
// (HDFS blocks), each partition made of pages (the minimum unit of disk or
// memory access), with an executor-side cache standing in for Spark's block
// cache. The cluster simulator charges time for page reads, seeks and cache
// hits using the layout arithmetic exposed here.
package storage

import (
	"fmt"
	"sync"

	"ml4all/internal/data"
)

// Layout describes the physical layout parameters (Table 1 of the paper).
type Layout struct {
	PartitionBytes int64 // |P|_b: bytes per partition (HDFS block size)
	PageBytes      int64 // |page|_b: bytes per page
}

// DefaultLayout mirrors the paper's HDFS defaults at the repository's global
// 1/64 simulation scale: 128 MB blocks become 2 MB partitions, so a dataset
// generated at 1/64 of a Table 2 row's bytes spans the same number of
// partitions the paper's original did. Pages are 1 KB — the minimum unit of
// (simulated) storage access.
func DefaultLayout() Layout {
	return Layout{PartitionBytes: 2 << 20, PageBytes: 1 << 10}
}

// Partition is one horizontal chunk of a dataset: a contiguous range of data
// units plus its byte size.
type Partition struct {
	ID    int
	Lo    int // first unit index (inclusive)
	Hi    int // last unit index (exclusive)
	Bytes int64
}

// Units returns the number of data units in the partition.
func (p Partition) Units() int { return p.Hi - p.Lo }

// Pages returns how many pages the partition occupies under layout l.
func (p Partition) Pages(l Layout) int64 {
	return (p.Bytes + l.PageBytes - 1) / l.PageBytes
}

// Store is a dataset laid out into partitions. It is immutable after Build
// (the shard memo is internal and lock-protected).
type Store struct {
	Dataset    *data.Dataset
	Layout     Layout
	Partitions []Partition
	TotalBytes int64

	shardMu    sync.Mutex
	shardCache map[int][]Shard
}

// Build lays ds out into partitions under l. Partition boundaries respect
// data-unit boundaries: a unit never straddles two partitions, matching how a
// record reader treats HDFS block splits.
func Build(ds *data.Dataset, l Layout) (*Store, error) {
	if l.PartitionBytes <= 0 || l.PageBytes <= 0 {
		return nil, fmt.Errorf("storage: invalid layout %+v", l)
	}
	if l.PageBytes > l.PartitionBytes {
		return nil, fmt.Errorf("storage: page size %d exceeds partition size %d", l.PageBytes, l.PartitionBytes)
	}
	s := &Store{Dataset: ds, Layout: l}
	var cur Partition
	cur.Lo = 0
	for i := 0; i < ds.N(); i++ {
		b := ds.UnitBytes(i)
		if cur.Bytes > 0 && cur.Bytes+b > l.PartitionBytes {
			cur.Hi = i
			s.Partitions = append(s.Partitions, cur)
			cur = Partition{ID: len(s.Partitions), Lo: i}
		}
		cur.Bytes += b
		s.TotalBytes += b
	}
	if cur.Bytes > 0 || len(s.Partitions) == 0 {
		cur.Hi = ds.N()
		s.Partitions = append(s.Partitions, cur)
	}
	return s, nil
}

// Rows returns the zero-copy arena view of the partition's data units — the
// contiguous [Lo, Hi) slice of the dataset's columnar matrix. No row data is
// copied; the view shares the store's arena.
func (s *Store) Rows(p Partition) *data.Matrix {
	return s.Dataset.Mat.Slice(p.Lo, p.Hi)
}

// NumPartitions returns p(D), the partition count.
func (s *Store) NumPartitions() int { return len(s.Partitions) }

// UnitsPerPartition returns k from Table 1: the (maximum) number of data
// units in one partition.
func (s *Store) UnitsPerPartition() int {
	k := 0
	for _, p := range s.Partitions {
		if u := p.Units(); u > k {
			k = u
		}
	}
	return k
}

// PartitionOf returns the partition containing unit index i.
func (s *Store) PartitionOf(i int) (Partition, error) {
	lo, hi := 0, len(s.Partitions)
	for lo < hi {
		mid := (lo + hi) / 2
		p := s.Partitions[mid]
		switch {
		case i < p.Lo:
			hi = mid
		case i >= p.Hi:
			lo = mid + 1
		default:
			return p, nil
		}
	}
	return Partition{}, fmt.Errorf("storage: unit index %d out of range", i)
}
