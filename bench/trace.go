package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// runTraced is the separate run that yields the per-layer numbers. It sets
// up once, replays the workload's unit of work step by step through the
// layers' public functions — alternately with and without the tracer, so the
// tracer's own cost is the difference — checks that the replay trains the
// very models the user-facing path trains, and then times each layer on its
// own (layers.go, layers_serve.go). Spans are kept in memory and written when
// the run ends.
func runTraced(rc *runCtx, w workload) (*report, error) {
	rep := newReport(rc, true)
	if err := rc.setUp(w); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer rc.tearDown()

	tr := newTracer()
	var plain, traced []float64
	var last *unitOut
	budget := time.Duration(0.25 * rc.seconds * float64(time.Second))
	for n, start := 0, time.Now(); n < 2 || time.Since(start) < budget; n++ {
		t0 := time.Now()
		if _, err := w.replay(rc, nil, n); err != nil {
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
		plain = append(plain, time.Since(t0).Seconds())
		t0 = time.Now()
		u, err := w.replay(rc, tr, n)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		traced = append(traced, time.Since(t0).Seconds())
		last = u
	}

	// The replay must train what the path a user takes trains — System.Exec,
	// or Optimize + Execute — and what a single worker trains. A served
	// workload's replay is the served job itself; its reference is the same
	// script run offline on one worker.
	ref, err := w.reference(rc)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	rep.compareUnits("stepwise replay vs one worker", last, ref)
	if !w.served() {
		user, err := w.unit(rc)
		if err != nil {
			return nil, fmt.Errorf("user-path run: %w", err)
		}
		rep.compareUnits("stepwise replay vs the user's path", last, user)
		if _, err := rc.rig.srv.Registry().Publish(servedModel, user.serving); err != nil {
			return nil, err
		}
	}

	m := rep.Metrics
	spans := tr.snapshot()
	shares, rootLayer, total := layerShares(spans)
	// Fastest against fastest: what disturbs a replay only ever slows it, and
	// the two to eight pairs a run has time for differ among themselves by
	// ±10 %, more than any tracer costs.
	m["trace_overhead_share"] = slices.Min(traced)/slices.Min(plain) - 1
	m["span.coverage"] = 1 - shares[rootLayer]
	for _, l := range spanLayers {
		m["span.share."+l] = shares[l]
	}
	var choosing time.Duration
	for _, s := range spans {
		if s.Name == "planner.Choose" || s.Name == "job optimize" {
			choosing += s.End - s.Start
		}
	}
	m["planner.wall_share"] = float64(choosing) / float64(total)
	rep.Samples["trace_overhead_share"] = len(traced)
	rep.Detail["replay_s"] = map[string]any{"untraced": plain, "traced": traced}

	if err := layerSuite(rc, m); err != nil {
		return nil, fmt.Errorf("layer timings: %w", err)
	}
	if err := serveLayers(rc, rc.files[0], m); err != nil {
		return nil, fmt.Errorf("serve layer timings: %w", err)
	}

	path := filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d-spans.json", rc.name, rc.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rep.Detail["spans_file"] = path
	rep.Detail["span_count"] = len(spans)
	rep.Detail["span_self_share_by_name"] = nameShares(spans)
	for name := range m {
		if strings.HasPrefix(name, "span.share.") && m[name] < 0 {
			return nil, fmt.Errorf("%s is negative: a span ends before it starts", name)
		}
	}
	return rep, rc.tearDown()
}
