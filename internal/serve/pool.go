package serve

import (
	"bytes"
	"math/bits"
	"sync"

	"ml4all/internal/data"
)

// Pooled serving-side scratch. The predict hot path handles thousands of
// small requests per second; every per-request allocation it performs is GC
// pressure multiplied by traffic, so each kind of scratch the pipeline needs
// — request arenas, parse scratch, score/label buffers, encode buffers — is
// recycled through a sync.Pool. Slices are pooled by power-of-two size class
// so a burst of large requests does not permanently inflate the buffers the
// small-request steady state cycles through, and callers never observe stale
// data: every pooled buffer is either fully overwritten (scores, labels) or
// explicitly truncated (builders, byte buffers) before reuse.

// slicePool pools slices of T by power-of-two capacity class. The pooled
// item is a boxed header (*[]T); boxes recycle through their own pool so
// neither get nor put allocates in steady state — a put that boxed its
// header with new(…) every time would itself be a per-request allocation.
type slicePool[T any] struct {
	classes [28]sync.Pool // boxed slices with cap 1<<class
	boxes   sync.Pool     // empty boxes awaiting the next put
}

// class maps a requested length to its size class: class c holds slices with
// capacity 1<<c.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a length-n slice with pooled backing storage.
func (p *slicePool[T]) get(n int) []T {
	c := sizeClass(n)
	if c >= len(p.classes) {
		return make([]T, n) // beyond the largest class: let the GC have it
	}
	if v := p.classes[c].Get(); v != nil {
		b := v.(*[]T)
		s := (*b)[:n]
		*b = nil
		p.boxes.Put(b)
		return s
	}
	return make([]T, n, 1<<c)
}

// put recycles s. The slice must no longer be referenced by the caller.
func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s) - 1)) // class whose capacity fits entirely
	if cap(s) != 1<<c || c >= len(p.classes) {
		return // off-class or oversized: drop
	}
	var b *[]T
	if v := p.boxes.Get(); v != nil {
		b = v.(*[]T)
	} else {
		b = new([]T)
	}
	*b = s[:0]
	p.classes[c].Put(b)
}

var (
	floatPool slicePool[float64]

	// builderPool recycles request arenas: BuildView + Reset keep one
	// builder's backing arrays alive across requests (data.MatrixBuilder's
	// pooled-ingest lifecycle).
	builderPool = sync.Pool{New: func() any { return data.NewMatrixBuilder(0, 0) }}

	// scratchPool recycles LIBSVM/CSV parse scratch (the idx/vals slices
	// ParsePredictLIBSVM and ParsePredictCSV append into).
	scratchPool = sync.Pool{New: func() any { return &parseScratch{} }}

	// bufPool recycles request-decode and response-encode byte buffers.
	bufPool = sync.Pool{New: func() any { return &bytes.Buffer{} }}

	// requestPool recycles decoded PredictRequest structs; json.Unmarshal
	// reuses the Rows/Instances backing arrays across requests.
	requestPool = sync.Pool{New: func() any { return &PredictRequest{} }}

	// responsePool recycles PredictResponse structs; their Scores/Labels
	// slices cycle through floatPool.
	responsePool = sync.Pool{New: func() any { return &PredictResponse{} }}
)

// parseScratch is the per-request parser scratch.
type parseScratch struct {
	idx  []int32
	vals []float64
}

func getBuilder() *data.MatrixBuilder { return builderPool.Get().(*data.MatrixBuilder) }

func putBuilder(b *data.MatrixBuilder) {
	b.Reset()
	builderPool.Put(b)
}

// AcquirePredictResponse returns a pooled response for Predictor.Predict to
// fill. Call Release when the response (including its Scores/Labels slices)
// is no longer referenced.
func AcquirePredictResponse() *PredictResponse { return responsePool.Get().(*PredictResponse) }

// Release recycles the response and its score/label buffers.
func (r *PredictResponse) Release() {
	if r.Scores != nil {
		floatPool.put(r.Scores)
	}
	if r.Labels != nil {
		floatPool.put(r.Labels)
	}
	*r = PredictResponse{}
	responsePool.Put(r)
}
