package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"ml4all/internal/lang"
	"ml4all/internal/linalg"
	"ml4all/internal/obs"
)

// httpError pairs a client-visible message with a status code; retryAfter,
// when set, is surfaced as a Retry-After header (admission-control 429s).
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func errStatus(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// handler is the route-function form the wrappers take: return a JSON-able
// payload or an error (an *httpError for a specific status, anything else
// for a 500 — except syntax/validation errors, mapped to 400).
type handler func(r *http.Request) (any, error)

// wrap instruments a route with the counters and centralizes encoding. The
// route's stats record is resolved once here, so the per-request observation
// is lock-free; responses encode into a pooled buffer (one Write to the
// connection, no per-request encoder garbage), and pooled payloads
// (releasable) are recycled after encoding.
//
// wrap is also the service's outermost robustness boundary: request bodies
// are capped (decodeJSON maps an overrun to 413), and a panic anywhere in
// the handler is recovered into a 500 — the stack goes to the server log,
// the panic value to the client, and the process keeps serving.
func (s *Server) wrap(route string, h handler) http.HandlerFunc {
	rs := s.counters.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.maxBody > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		payload, err := func() (out any, err error) {
			defer func() {
				if rec := recover(); rec != nil {
					s.counters.recoveredPanics.Add(1)
					log.Printf("serve: panic in %s handler: %v\n%s", route, rec, debug.Stack())
					err = errStatus(http.StatusInternalServerError, "internal panic: %v", rec)
				}
			}()
			return h(r)
		}()
		status := http.StatusOK
		var retryAfter time.Duration
		if err != nil {
			var he *httpError
			var se *lang.SyntaxError
			switch {
			case errors.As(err, &he):
				status = he.status
				retryAfter = he.retryAfter
			case errors.As(err, &se):
				status = http.StatusBadRequest
			default:
				status = http.StatusInternalServerError
			}
			payload = map[string]string{"error": err.Error()}
		}
		rs.observe(time.Since(start), status >= 400)
		buf := bufPool.Get().(*bytes.Buffer)
		buf.Reset()
		json.NewEncoder(buf).Encode(payload)
		if rel, ok := payload.(releasable); ok {
			rel.release()
		}
		w.Header().Set("Content-Type", "application/json")
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(retryAfter)))
		}
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(status)
		w.Write(buf.Bytes())
		bufPool.Put(buf)
	}
}

// retrySeconds renders a Retry-After duration in the header's unit: whole
// seconds, rounded up, at least 1.
func retrySeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// decodeJSON strictly decodes a request body into v. A body that overran the
// server's cap (wrap installs http.MaxBytesReader) maps to 413, anything
// else undecodable to 400.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errStatus(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		}
		return errStatus(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// submitRequest is the body of POST /v1/jobs.
type submitRequest struct {
	// Script is one declarative run statement, e.g.
	// "m = run logistic on train.txt having epsilon 0.01, max iter 500;".
	Script string `json:"script"`
	// Model optionally overrides the registry name the trained model
	// publishes under (default: the script's assigned query name, else the
	// job id).
	Model string `json:"model,omitempty"`
	// FastMath opts the job into the fast kernel tier without editing the
	// script (equivalent to `having fastmath` in the statement). The tier
	// is recorded in the job manifest, so restarts resume on it.
	FastMath bool `json:"fastmath,omitempty"`
}

func (s *Server) handleSubmit(r *http.Request) (any, error) {
	if s.manager.Recovering() {
		// Degrade rather than interleave: while the manager replays jobs
		// interrupted by the last crash, new submissions are shed with a
		// retry hint instead of queueing behind an unknown replay backlog.
		err := errStatus(http.StatusServiceUnavailable, "serve: recovering interrupted jobs after restart; retry shortly")
		err.retryAfter = time.Second
		return nil, err
	}
	var req submitRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Script == "" {
		return nil, errStatus(http.StatusBadRequest, "script is required")
	}
	j, err := s.manager.SubmitJob(req.Script, req.Model, SubmitOptions{FastMath: req.FastMath})
	if err != nil {
		return nil, badRequest(err)
	}
	return j.Status(), nil
}

func (s *Server) handleJobList(r *http.Request) (any, error) {
	return map[string]any{"jobs": s.manager.List()}, nil
}

// getJob resolves the {id} path parameter.
func (s *Server) getJob(r *http.Request) (*Job, error) {
	id := r.PathValue("id")
	j, ok := s.manager.Job(id)
	if !ok {
		return nil, errStatus(http.StatusNotFound, "job %q not found", id)
	}
	return j, nil
}

func (s *Server) handleJobGet(r *http.Request) (any, error) {
	j, err := s.getJob(r)
	if err != nil {
		return nil, err
	}
	return j.Status(), nil
}

func (s *Server) handleJobCancel(r *http.Request) (any, error) {
	j, err := s.getJob(r)
	if err != nil {
		return nil, err
	}
	if err := s.manager.Cancel(j.ID); err != nil {
		return nil, badRequest(err)
	}
	return j.Status(), nil
}

func (s *Server) handleJobPause(r *http.Request) (any, error) {
	j, err := s.getJob(r)
	if err != nil {
		return nil, err
	}
	if err := s.manager.Pause(j.ID); err != nil {
		return nil, badRequest(err)
	}
	return j.Status(), nil
}

func (s *Server) handleJobResume(r *http.Request) (any, error) {
	j, err := s.getJob(r)
	if err != nil {
		return nil, err
	}
	if err := s.manager.Resume(j.ID); err != nil {
		return nil, badRequest(err)
	}
	return j.Status(), nil
}

// handleJobTrace returns the job's span timeline: every named phase span
// (optimize, speculate, train, checkpoint, recover) with monotonic
// nanosecond offsets from the trace's birth and parent links, so a client
// can reconstruct the whole run as a flame chart.
func (s *Server) handleJobTrace(r *http.Request) (any, error) {
	j, err := s.getJob(r)
	if err != nil {
		return nil, err
	}
	return map[string]any{"job": j.ID, "spans": j.Trace().Spans()}, nil
}

// eventsHandler streams a job's live event log. Two modes:
//
//   - default: Server-Sent Events — each event is one SSE frame (id: the
//     sequence number, event: the type, data: the JSON payload), held open
//     until the job reaches a terminal state or the client disconnects.
//     Reconnecting clients resume with ?after=<last seq seen>.
//   - ?once: long-poll JSON — block until at least one event past ?after
//     exists (or ~10s elapse), then return {"events": [...], "closed": bool}
//     in one response. Curl-friendly, and the mode the e2e tests exercise.
//
// The route streams instead of buffering, so it bypasses wrap; its stats
// record is resolved once here to keep the per-request path lock-free.
func (s *Server) eventsHandler() http.HandlerFunc {
	rs := s.counters.route("jobs.events")
	jsonErr := func(w http.ResponseWriter, status int, format string, args ...any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.PathValue("id")
		j, ok := s.manager.Job(id)
		if !ok {
			rs.observe(time.Since(start), true)
			jsonErr(w, http.StatusNotFound, "job %q not found", id)
			return
		}
		after := -1 // replay the whole retained window by default
		if raw := r.URL.Query().Get("after"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil {
				rs.observe(time.Since(start), true)
				jsonErr(w, http.StatusBadRequest, "bad after %q", raw)
				return
			}
			after = v
		}
		if r.URL.Query().Has("once") {
			ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
			defer cancel()
			evs, closed, err := j.Events().Wait(ctx, after)
			if err != nil { // poll window elapsed: an empty page, not an error
				evs, closed = nil, j.Events().Closed()
			}
			if evs == nil {
				evs = []obs.Event{}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"events": evs, "closed": closed})
			rs.observe(time.Since(start), false)
			return
		}
		fl, canFlush := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		for {
			evs, closed, err := j.Events().Wait(r.Context(), after)
			if err != nil { // client went away
				break
			}
			for _, ev := range evs {
				data, _ := json.Marshal(ev)
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
				after = ev.Seq
			}
			if canFlush {
				fl.Flush()
			}
			if closed {
				break
			}
		}
		rs.observe(time.Since(start), false)
	}
}

// modelInfo is the metadata view of one model version.
type modelInfo struct {
	Name       string  `json:"name"`
	Version    int     `json:"version"`
	Task       string  `json:"task"`
	Plan       string  `json:"plan"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	TrainTime  float64 `json:"train_time_sec"` // simulated seconds
	Features   int     `json:"features"`
}

func info(mv *ModelVersion) modelInfo {
	m := mv.Model
	return modelInfo{
		Name: mv.Name, Version: mv.Version, Task: m.Task.String(), Plan: m.PlanName,
		Iterations: m.Iterations, Converged: m.Converged,
		TrainTime: float64(m.TrainTime), Features: len(m.Weights),
	}
}

func (s *Server) handleModelList(r *http.Request) (any, error) {
	out := []modelInfo{}
	for _, name := range s.registry.Names() {
		if mv, ok := s.registry.Get(name, 0); ok {
			out = append(out, info(mv))
		}
	}
	return map[string]any{"models": out}, nil
}

// versionParam parses the optional ?version=N query parameter (0 = latest).
func versionParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, errStatus(http.StatusBadRequest, "bad version %q", raw)
	}
	return v, nil
}

func (s *Server) handleModelGet(r *http.Request) (any, error) {
	name := r.PathValue("name")
	vs := s.registry.Versions(name)
	if len(vs) == 0 {
		return nil, errStatus(http.StatusNotFound, "model %q not found", name)
	}
	infos := make([]modelInfo, len(vs))
	for i, mv := range vs {
		infos[i] = info(mv)
	}
	return map[string]any{
		"name":     name,
		"latest":   vs[len(vs)-1].Version,
		"versions": infos,
	}, nil
}

func (s *Server) handleModelDelete(r *http.Request) (any, error) {
	name := r.PathValue("name")
	v, err := versionParam(r)
	if err != nil {
		return nil, err
	}
	if err := s.registry.Delete(name, v); err != nil {
		if errors.Is(err, errNotFound) {
			return nil, errStatus(http.StatusNotFound, "%v", err)
		}
		return nil, err // I/O fault: the model still exists — 500, not 404
	}
	return map[string]any{"deleted": name, "version": v}, nil
}

func (s *Server) handlePredict(r *http.Request) (any, error) {
	name := r.PathValue("name")
	v, err := versionParam(r)
	if err != nil {
		return nil, err
	}
	mv, ok := s.registry.Get(name, v)
	if !ok {
		return nil, errStatus(http.StatusNotFound, "model %q version %d not found", name, v)
	}
	req := requestPool.Get().(*PredictRequest)
	req.reset() // decode must not inherit a previous request's fields
	defer requestPool.Put(req)
	if err := decodeJSON(r, req); err != nil {
		return nil, err
	}
	resp := AcquirePredictResponse()
	// The request context carries the client disconnect.
	if err := s.predictor.Predict(r.Context(), mv, req, resp); err != nil {
		resp.Release()
		return nil, badRequest(err)
	}
	return resp, nil // wrap releases the pooled response after encoding
}

// badRequest maps a domain error to 400 unless it already carries a status.
func badRequest(err error) error {
	var he *httpError
	if errors.As(err, &he) {
		return err
	}
	var se *lang.SyntaxError
	if errors.As(err, &se) {
		return err // wrap already maps syntax errors to 400
	}
	return &httpError{status: http.StatusBadRequest, msg: err.Error()}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.counters.WriteText(w)
	// Info-style gauge naming the kernel backend FastMath work dispatches to
	// right now (the exact tier always runs the bit-exact loops), so scraped
	// latency series are attributable to the silicon that produced them.
	fmt.Fprintln(w, "# HELP ml4all_kernel_backend_info Kernel backend the fast-math tier dispatches to.")
	fmt.Fprintln(w, "# TYPE ml4all_kernel_backend_info gauge")
	fmt.Fprintf(w, "ml4all_kernel_backend_info{fast_backend=%q,cpu=%q} 1\n",
		linalg.FastBackend(), linalg.CPUFeatures())
	b := obs.Build()
	fmt.Fprintln(w, "# HELP ml4all_build_info Build identity of the running binary.")
	fmt.Fprintln(w, "# TYPE ml4all_build_info gauge")
	fmt.Fprintf(w, "ml4all_build_info{version=%q,go=%q,revision=%q} 1\n",
		b.Version, b.Go, b.Revision)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := s.manager.StateCounts()
	payload := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"jobs":           counts,
		"models":         len(s.registry.Names()),
		"kernel_backend": linalg.FastBackend(),
		"cpu_features":   linalg.CPUFeatures(),
		"build":          obs.Build(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payload)
}
