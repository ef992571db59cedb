// Package serve is the online serving subsystem: a long-running service in
// front of the cost-based optimizer, composing the resumable trainer (PR 2),
// the columnar arena (PR 3) and the block kernels (PR 4) into three
// cooperating pieces —
//
//   - a job manager (manager.go) that accepts declarative training jobs over
//     HTTP/JSON and runs them on a bounded pool of step-driven trainers:
//     cancellable between iterations, pausable, checkpointed to disk on an
//     interval, and resumable after a process restart, with the cost-based
//     optimizer choosing each job's physical plan;
//
//   - a model registry (registry.go) that versions trained models as
//     name@version, persisted through SaveModel/LoadModel with atomic
//     publish, so the serving fleet never observes a half-written model;
//
//   - a prediction service (predict.go, admission.go) that parses request
//     rows into pooled columnar arenas and scores each call's rows in one
//     pass of the batched block margin kernels — the same kernels training
//     uses, which is what makes served predictions bit-identical to offline
//     Evaluate on the same rows. Admission control sheds overload with
//     429 + Retry-After instead of queueing unboundedly.
//
// Per-endpoint latency histograms (p50/p95/p99) and throughput counters are
// exposed at /metrics (Prometheus text format) and a liveness summary at
// /healthz. See DESIGN.md §9 and §11 for the architecture and README.md for
// a curl quickstart.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"ml4all"
	"ml4all/internal/fault"
)

// Config sizes a Server and its job manager (New and NewManager both take
// it). A zero field takes the default its comment states.
type Config struct {
	// Dir is the state root: the model registry lives under Dir/models,
	// job manifests and checkpoints under Dir/jobs/<id>/.
	Dir string
	// Pool is the number of training jobs running concurrently. 0 means 2.
	Pool int
	// QueueDepth bounds the submission queue. 0 means 256.
	QueueDepth int
	// CheckpointEvery is the wall-clock interval between checkpoint writes
	// while a job runs. 0 means 2s; negative disables interval checkpoints
	// (shutdown and pause still checkpoint).
	CheckpointEvery time.Duration
	// System, when non-nil, is the configured System jobs plan and train
	// on (cluster config, estimator settings, worker pool). Nil means
	// ml4all.NewSystem().
	System *ml4all.System
	// MaxBodyBytes caps request bodies; an overrun returns 413. 0 means
	// 8 MiB; negative disables the cap.
	MaxBodyBytes int64
	// Fault, when non-nil, injects deterministic faults into every
	// checkpoint, manifest, ledger and registry filesystem operation (crash
	// tests, chaos drills). Nil in New consults the ML4ALL_FAULT environment
	// variable (see fault.ParsePlan), and unset means no injection; nil in
	// NewManager means no injection.
	Fault *fault.Injector
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose process internals, so production deployments should
	// only turn this on behind trusted ingress.
	EnablePprof bool

	// stepHook, when non-nil, runs after every successful Step of every
	// job. Test-only: the shutdown/restart tests throttle iterations with
	// it so "mid-flight" is a state they can reliably hit.
	stepHook func(jobID string, iteration int)
}

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is 0:
// 8 MiB holds a ~500-row dense predict batch with room to spare while
// bounding what one connection can make the decoder buffer.
const defaultMaxBodyBytes = 8 << 20

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	if c.System == nil {
		c.System = ml4all.NewSystem()
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	return c
}

// Server wires the job manager, the model registry and the prediction
// service behind one http.Handler.
type Server struct {
	cfg       Config
	manager   *Manager
	registry  *Registry
	counters  *Counters
	predictor *Predictor
	started   time.Time
}

// New opens the server's state directory (resuming any interrupted jobs and
// reloading every published model) and starts the training pool.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Fault == nil {
		var err error
		if cfg.Fault, err = fault.FromSpec(os.Getenv("ML4ALL_FAULT")); err != nil {
			return nil, fmt.Errorf("serve: ML4ALL_FAULT: %w", err)
		}
	}
	counters := newCounters()
	reg, err := OpenRegistry(filepath.Join(cfg.Dir, "models"), cfg.Fault, counters)
	if err != nil {
		return nil, err
	}
	mgr, err := NewManager(cfg, reg, counters)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:       cfg,
		manager:   mgr,
		registry:  reg,
		counters:  counters,
		predictor: NewPredictor(counters),
		started:   time.Now(),
	}, nil
}

// HTTPServer wraps the service in an http.Server with hardened edges: header
// and body read deadlines (slow-loris), a write deadline longer than any
// predict pass, an idle keep-alive bound, and a header cap. The caller owns
// ListenAndServe/Shutdown.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// Manager exposes the job manager (tests and the CLI drive it directly).
func (s *Server) Manager() *Manager { return s.manager }

// Registry exposes the model registry.
func (s *Server) Registry() *Registry { return s.registry }

// Predictor exposes the prediction pipeline (benchmarks and embedders drive
// it without the HTTP layer).
func (s *Server) Predictor() *Predictor { return s.predictor }

// Counters exposes the server's metrics registry (the load harness reads
// per-phase span summaries from it without scraping /metrics).
func (s *Server) Counters() *Counters { return s.counters }

// Shutdown drains the training pool gracefully: running jobs checkpoint and
// are left resumable on disk. Predict calls hold no server-side state, so
// in-flight ones simply finish. The HTTP listener (owned by the caller)
// should stop first.
func (s *Server) Shutdown(ctx context.Context) error { return s.manager.Shutdown(ctx) }

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.wrap("jobs.submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.wrap("jobs.list", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.wrap("jobs.get", s.handleJobGet))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.wrap("jobs.cancel", s.handleJobCancel))
	mux.HandleFunc("POST /v1/jobs/{id}/pause", s.wrap("jobs.pause", s.handleJobPause))
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.wrap("jobs.resume", s.handleJobResume))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.wrap("jobs.trace", s.handleJobTrace))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.eventsHandler())
	mux.HandleFunc("GET /v1/models", s.wrap("models.list", s.handleModelList))
	mux.HandleFunc("GET /v1/models/{name}", s.wrap("models.get", s.handleModelGet))
	mux.HandleFunc("DELETE /v1/models/{name}", s.wrap("models.delete", s.handleModelDelete))
	mux.HandleFunc("POST /v1/models/{name}/predict", s.wrap("predict", s.handlePredict))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
