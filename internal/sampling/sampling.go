// Package sampling implements the Sample operator's three physical
// strategies (paper Section 6, Figure 4): Bernoulli (scan everything, keep
// each unit with probability b/n — what MLlib does), random-partition (per
// draw, pick a random partition then a random unit inside it) and
// shuffled-partition (shuffle one randomly-picked partition once, then serve
// draws sequentially from it, reshuffling a new partition when exhausted).
//
// Samplers return the indices of the drawn data units and charge the
// simulated IO cost of locating and reading them; the engine charges
// transform/compute CPU separately, depending on where the plan places those
// operators.
package sampling

import (
	"fmt"
	"math/rand"

	"ml4all/internal/cluster"
	"ml4all/internal/gd"
	"ml4all/internal/storage"
)

// Env is what a sampler needs to operate: the simulated cluster to charge
// costs on, the partitioned dataset, and a deterministic RNG owned by the
// running plan.
type Env struct {
	Sim   *cluster.Sim
	Store *storage.Store
	RNG   *rand.Rand
}

// Sampler is the paper's operator (5). Draw returns the unit indices of the
// next sample of size b, charging simulated access costs as a side effect.
// The returned slice is the sampler's own buffer, valid until the next Draw
// on the same sampler; a caller that keeps indices longer copies them.
type Sampler interface {
	Kind() gd.SamplingKind
	// Draw returns ~b unit indices (exactly b for the partition-based
	// strategies; Bernoulli's count is binomially distributed, as in
	// Spark).
	Draw(env *Env, b int) ([]int, error)
}

// Stateful is implemented by samplers that carry state between draws (only
// the shuffled-partition strategy does: its not-yet-served queue). The
// engine's checkpoint captures the state and restores it on resume so a
// resumed run serves exactly the units the uninterrupted run would have.
type Stateful interface {
	// StateSnapshot returns a copy of the sampler's internal state.
	StateSnapshot() []int
	// StateRestore replaces the internal state with a snapshot.
	StateRestore(state []int)
}

// New returns a sampler for the given strategy kind.
func New(kind gd.SamplingKind) (Sampler, error) {
	switch kind {
	case gd.Bernoulli:
		return &BernoulliSampler{}, nil
	case gd.RandomPartition:
		return &RandomPartitionSampler{}, nil
	case gd.ShuffledPartition:
		return &ShuffledPartitionSampler{}, nil
	case gd.NoSampling:
		return nil, fmt.Errorf("sampling: NoSampling has no sampler")
	default:
		return nil, fmt.Errorf("sampling: unknown kind %v", kind)
	}
}

// emptied returns buf with length 0 and room for b indices.
func emptied(buf []int, b int) []int {
	if cap(buf) < b {
		return make([]int, 0, b)
	}
	return buf[:0]
}

// BernoulliSampler scans every partition on every draw and keeps each unit
// independently with probability b/n. Like Spark's sample(), the returned
// count is random; when the draw comes back empty (likely for b=1 over large
// n) it falls back to one uniformly random unit rather than rescanning, the
// cheaper of the two mitigations the paper discusses for MLlib.
type BernoulliSampler struct {
	costs  []cluster.Seconds // per-partition scan costs, rebuilt each Draw
	picked []int             // the returned index buffer
}

// Kind implements Sampler.
func (*BernoulliSampler) Kind() gd.SamplingKind { return gd.Bernoulli }

// Draw implements Sampler. Cost: a full distributed scan of the dataset —
// one task per partition, each paying the partition read plus a per-unit
// inspection, exactly why the paper calls Bernoulli sampling out as reading
// "the entire input dataset for taking a small sample".
func (s *BernoulliSampler) Draw(env *Env, b int) ([]int, error) {
	st := env.Store
	n := st.Dataset.N()
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty dataset")
	}
	p := float64(b) / float64(n)
	costs, picked := s.costs[:0], s.picked[:0]
	for _, part := range st.Partitions {
		c := env.Sim.CostReadPartition(part, st.Layout)
		c += env.Sim.CostCPU(part.Units(), 0)
		costs = append(costs, c)
		for i := part.Lo; i < part.Hi; i++ {
			if env.RNG.Float64() < p {
				picked = append(picked, i)
			}
		}
	}
	env.Sim.RunWaves(costs)
	if len(picked) == 0 {
		picked = append(picked, env.RNG.Intn(n))
	}
	s.costs, s.picked = costs, picked
	return picked, nil
}

// RandomPartitionSampler picks, per required sample unit, one random
// partition and then one random unit inside it — b random accesses per draw.
type RandomPartitionSampler struct {
	picked []int // the returned index buffer
}

// Kind implements Sampler.
func (*RandomPartitionSampler) Kind() gd.SamplingKind { return gd.RandomPartition }

// Draw implements Sampler. Cost: b seeks plus the pages covering each
// accessed unit, executed serially by one task; this is the "large number of
// random accesses" the paper attributes to random-partition.
func (s *RandomPartitionSampler) Draw(env *Env, b int) ([]int, error) {
	st := env.Store
	if st.Dataset.N() == 0 {
		return nil, fmt.Errorf("sampling: empty dataset")
	}
	picked := emptied(s.picked, b)
	var total cluster.Seconds
	for j := 0; j < b; j++ {
		part := st.Partitions[env.RNG.Intn(len(st.Partitions))]
		idx := part.Lo + env.RNG.Intn(part.Units())
		unitBytes := st.Dataset.UnitBytes(idx)
		total += env.Sim.CostReadBytes(part, st.Layout, unitBytes)
		picked = append(picked, idx)
	}
	env.Sim.RunLocal(total)
	s.picked = picked
	return picked, nil
}

// ShuffledPartitionSampler shuffles one randomly-picked partition once and
// serves draws sequentially from it; when fewer units remain than requested
// it tops up from a freshly shuffled second partition (paper Section 6).
type ShuffledPartitionSampler struct {
	queue  []int // shuffled unit indices not yet served
	picked []int // the returned index buffer
}

// Kind implements Sampler.
func (*ShuffledPartitionSampler) Kind() gd.SamplingKind { return gd.ShuffledPartition }

// StateSnapshot implements Stateful: a copy of the pending queue.
func (s *ShuffledPartitionSampler) StateSnapshot() []int {
	if s.queue == nil {
		return nil
	}
	out := make([]int, len(s.queue))
	copy(out, s.queue)
	return out
}

// StateRestore implements Stateful.
func (s *ShuffledPartitionSampler) StateRestore(state []int) {
	s.queue = nil
	if len(state) > 0 {
		s.queue = make([]int, len(state))
		copy(s.queue, state)
	}
}

// Draw implements Sampler. Cost: on refill, one partition read plus a
// shuffle pass over its units; per draw, only the sequential pages covering
// the served units — the "so low it can still achieve lower training times"
// per-iteration cost the paper exploits.
func (s *ShuffledPartitionSampler) Draw(env *Env, b int) ([]int, error) {
	st := env.Store
	if st.Dataset.N() == 0 {
		return nil, fmt.Errorf("sampling: empty dataset")
	}
	picked := emptied(s.picked, b)
	var total cluster.Seconds
	var servedBytes int64
	for len(picked) < b {
		if len(s.queue) == 0 {
			part := st.Partitions[env.RNG.Intn(len(st.Partitions))]
			total += env.Sim.CostReadPartition(part, st.Layout)
			total += env.Sim.CostCPU(part.Units(), float64(part.Units())) // Fisher-Yates pass
			s.queue = make([]int, part.Units())
			for i := range s.queue {
				s.queue[i] = part.Lo + i
			}
			env.RNG.Shuffle(len(s.queue), func(a, c int) {
				s.queue[a], s.queue[c] = s.queue[c], s.queue[a]
			})
		}
		take := b - len(picked)
		if take > len(s.queue) {
			take = len(s.queue)
		}
		for _, idx := range s.queue[:take] {
			picked = append(picked, idx)
			servedBytes += st.Dataset.UnitBytes(idx)
		}
		s.queue = s.queue[take:]
	}
	pages := (servedBytes + st.Layout.PageBytes - 1) / st.Layout.PageBytes
	total += cluster.Seconds(pages) * env.Sim.Cfg.MemPageSec
	env.Sim.RunLocal(total)
	s.picked = picked
	return picked, nil
}
