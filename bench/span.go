package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one repetition of a workload's unit of
// work share Rep; Parent is the span that caused this one (-1 for the root).
// Start and End are offsets from the tracer's birth.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Rep    int           `json:"rep"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same replay code runs traced and untraced and the
// difference between the two is the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	birth time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{birth: time.Now()} }

func (t *tracer) start(name, layer string, parent, rep int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.birth)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: rep, Name: name, Layer: layer, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.birth)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the server's own
// job trace, an event timestamp), re-based onto this tracer's clock.
func (t *tracer) add(name, layer string, parent, rep int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: rep, Name: name, Layer: layer, Start: start, End: end})
	t.mu.Unlock()
	return id
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.birth)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (concurrent work), so their intervals are merged before subtracting, and
// are clipped to the parent. Open spans (End < 0) count as zero.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge time.Duration
		edge = s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			if v.lo < edge {
				v.lo = edge
			}
			covered += v.hi - v.lo
			edge = v.hi
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerShares sums self time per layer over every span below a root span and
// divides by the summed root durations. The root spans' own self time is the
// glue between layer calls and is reported under the root's layer, so
// coverage — what the named layers explain — is one minus that share.
func layerShares(spans []span) (shares map[string]float64, rootLayer string, total time.Duration) {
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		if s.Parent < 0 {
			total += s.End - s.Start
			rootLayer = s.Layer
		}
		byLayer[s.Layer] += self[i]
	}
	shares = make(map[string]float64, len(byLayer))
	if total > 0 {
		for l, d := range byLayer {
			shares[l] = float64(d) / float64(total)
		}
	}
	return shares, rootLayer, total
}

// nameShares is layerShares by span name: where inside a layer the time went.
func nameShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	var total time.Duration
	byName := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		if s.Parent < 0 {
			total += s.End - s.Start
		}
		byName[s.Name] += self[i]
	}
	shares := make(map[string]float64, len(byName))
	for n, d := range byName {
		shares[n] = float64(d) / float64(total)
	}
	return shares
}

// writeSpans stores the spans as one JSON document: a list ordered by start,
// each with id, parent, rep, name, layer and start/end in nanoseconds since
// the run began, plus the precomputed self time.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		SelfNs time.Duration `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{span: s, SelfNs: self[i]}
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
