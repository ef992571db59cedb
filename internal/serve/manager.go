package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ml4all"
	"ml4all/internal/estimator"
	"ml4all/internal/fault"
	"ml4all/internal/lang"
	"ml4all/internal/linalg"
	"ml4all/internal/obs"
)

// JobState is a training job's lifecycle state.
type JobState string

// Job lifecycle: Submit → queued → running → {completed, failed, cancelled},
// with running ⇄ paused in between. Non-terminal jobs survive a restart:
// their manifest and latest checkpoint are on disk, and the manager re-queues
// them on open (paused jobs stay paused).
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobPaused    JobState = "paused"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether a state ends the job.
func (s JobState) terminal() bool {
	return s == JobCompleted || s == JobFailed || s == JobCancelled
}

// errQueueFull refuses a submission or resume the job queue has no room
// for: server capacity, not a client error (HTTP 503 + Retry-After).
var errQueueFull = errors.New("serve: job queue full")

// Job is one submitted training job. All mutable fields are guarded by mu;
// the embedded TrainJob is owned by exactly one runner goroutine at a time.
type Job struct {
	ID     string
	Script string
	Model  string // registry name the result publishes under

	mu     sync.Mutex
	stmt   *lang.Run
	status JobStatus // the job's record: what Status returns, what persist writes

	job       *ml4all.TrainJob // live trainer; nil until opened / after restart
	cancelled chan struct{}
	pause     bool

	// Observability surfaces, attached once at submission/reload and
	// immutable thereafter (no lock needed to read the pointers): the
	// wall-clock observer, the span timeline, and the live event stream.
	ring   *obs.Ring
	trace  *obs.Trace
	events *obs.EventLog

	// fromRestart marks a job re-queued by loadJobs after a restart;
	// replayed flips once its trainer reopens (or the job settles without
	// one), draining the manager's recovering gauge.
	fromRestart bool
	replayed    bool
}

// Trace returns the job's span timeline (the /v1/jobs/{id}/trace source).
func (j *Job) Trace() *obs.Trace { return j.trace }

// Events returns the job's live event stream (the /v1/jobs/{id}/events
// source).
func (j *Job) Events() *obs.EventLog { return j.events }

// JobStatus is a job's record: the externally visible snapshot, and — with
// the script — the manifest that restores the job after a restart.
type JobStatus struct {
	ID        string   `json:"id"`
	Model     string   `json:"model"`
	State     JobState `json:"state"`
	Plan      string   `json:"plan,omitempty"`
	Iteration int      `json:"iteration"`
	Delta     float64  `json:"delta,omitempty"`
	Converged bool     `json:"converged"`
	Version   int      `json:"version,omitempty"` // published registry version
	Error     string   `json:"error,omitempty"`
}

// manifest is the per-job record persisted next to the checkpoint: the
// job's whole status as of the last persist plus its script, enough to
// reconstruct the job — a settled one with its outcome — after a restart.
type manifest struct {
	JobStatus
	Script string `json:"script"`
	// FastMath is only ever read: an older manifest may carry a
	// per-submission fast-tier opt-in here, and loadJobs fails such a
	// non-terminal job unless its script says `having fastmath`.
	FastMath bool `json:"fastmath,omitempty"`
}

// Manager accepts declarative training jobs and runs them on a bounded pool
// of resumable trainers: each runner drives its job one Step at a time, so
// jobs are cancellable, pausable and stoppable at every iteration edge,
// checkpointed to disk on an interval, and — because the manifest
// and checkpoint are on disk — resumable after a process restart,
// bit-identically to a run that was never stopped.
type Manager struct {
	cfg      Config // defaults applied
	reg      *Registry
	counters *Counters // durability observations: checkpoints, panics, ledger

	// ckptFS/mfFS are the fault-injectable filesystem seams every checkpoint
	// and manifest write goes through; with no injector they are the raw OS.
	ckptFS fault.FS
	mfFS   fault.FS

	// ledger is the persistent run history at jobs/ledger.jsonl: one record
	// per completed job, written through the same durable-write protocol as
	// checkpoints (fault tag "ledger").
	ledger *obs.Ledger

	// recovering counts restart-recovered jobs whose trainers have not yet
	// replayed; the HTTP layer sheds submissions while it is non-zero.
	recovering atomic.Int64

	// sysMu serializes access to cfg.System's catalog (dataset loading,
	// planning) — job Steps run outside the lock on job-local state only.
	sysMu sync.Mutex

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	nextID int
	closed bool

	queue    chan *Job
	wg       sync.WaitGroup
	shutdown chan struct{}
}

// NewManager opens (creating if needed) a manager rooted at cfg.Dir, reloads
// every job found there — re-queuing non-terminal ones from their latest
// checkpoint — and starts the runner pool. It reads Dir, Pool, QueueDepth,
// CheckpointEvery, System and Fault from cfg. counters receives durability
// observations (checkpoints written/verified/discarded, recovered panics,
// ledger appends); nil means a private set nobody reads.
func NewManager(cfg Config, reg *Registry, counters *Counters) (*Manager, error) {
	cfg = cfg.withDefaults()
	if counters == nil {
		counters = newCounters()
	}
	m := &Manager{
		cfg:      cfg,
		reg:      reg,
		counters: counters,
		ckptFS:   fault.NewFS(cfg.Fault, "ckpt"),
		mfFS:     fault.NewFS(cfg.Fault, "manifest"),
		jobs:     map[string]*Job{},
		shutdown: make(chan struct{}),
	}
	if err := m.mfFS.MkdirAll(m.jobsDir()); err != nil {
		return nil, fmt.Errorf("serve: jobs dir: %w", err)
	}
	// A crash inside a ledger append strands a ".tmp-*" in the jobs root;
	// sweep before opening (loadJobs sweeps the per-job directories).
	ledgerFS := fault.NewFS(cfg.Fault, "ledger")
	fault.SweepTemps(ledgerFS, m.jobsDir())
	ledger, err := obs.OpenLedger(ledgerFS, filepath.Join(m.jobsDir(), "ledger.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("serve: run ledger: %w", err)
	}
	m.ledger = ledger
	resumable, err := m.loadJobs()
	if err != nil {
		return nil, err
	}
	// Until every resumable job has replayed its checkpoint, the manager
	// reports Recovering and the HTTP layer sheds new submissions with 503.
	for _, j := range resumable {
		j.fromRestart = true
	}
	m.recovering.Store(int64(len(resumable)))
	// The queue must at least hold every job reloaded from disk, or startup
	// would block on its own backlog.
	depth := cfg.QueueDepth
	if len(resumable) > depth {
		depth = len(resumable)
	}
	m.queue = make(chan *Job, depth)
	for _, j := range resumable {
		m.queue <- j
	}
	for i := 0; i < cfg.Pool; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

func (m *Manager) jobsDir() string         { return filepath.Join(m.cfg.Dir, "jobs") }
func (m *Manager) jobDir(id string) string { return filepath.Join(m.jobsDir(), id) }

// Ledger returns the manager's persistent run history.
func (m *Manager) Ledger() *obs.Ledger { return m.ledger }

// attachObs wires a job's observability surfaces: the wall-clock ring, a
// span trace whose closed spans feed the per-phase histograms, and
// the live event stream.
func (m *Manager) attachObs(j *Job) {
	j.ring = obs.NewRing(0)
	j.trace = obs.NewTrace()
	j.trace.OnEnd(func(name string, d time.Duration) { m.counters.phase(name).observe(d, false) })
	j.events = obs.NewEventLog(0)
}

// Recovering reports whether restart-recovered jobs are still replaying
// toward their pre-crash state. While true the server answers new
// submissions with 503 + Retry-After instead of competing with recovery for
// pool slots; predict and job inspection stay available (degraded, not down).
func (m *Manager) Recovering() bool { return m.recovering.Load() > 0 }

// replayDone marks a restart-recovered job as replayed — its trainer
// reopened, or the job settled without needing one. Idempotent per job.
func (m *Manager) replayDone(j *Job) {
	j.mu.Lock()
	fire := j.fromRestart && !j.replayed
	j.replayed = true
	j.mu.Unlock()
	if fire {
		m.recovering.Add(-1)
	}
}

// loadJobs reloads persisted jobs after a restart, returning the ones to
// re-queue. Jobs that were queued or running when the process died re-enter
// the queue immediately (resuming from their latest checkpoint when one
// exists); paused ones wait for an explicit resume.
func (m *Manager) loadJobs() ([]*Job, error) {
	entries, err := m.mfFS.ReadDir(m.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("serve: jobs dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded ids sort in submission order
	var resumable []*Job
	for _, id := range names {
		// A crash inside a durable write strands a ".tmp-*" sibling; sweep
		// them before anything else looks at the directory.
		fault.SweepTemps(m.mfFS, m.jobDir(id))
		raw, err := m.mfFS.ReadFile(filepath.Join(m.jobDir(id), "manifest.json"))
		if os.IsNotExist(err) {
			continue // crashed between job-dir creation and the first persist
		}
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: %w", id, err)
		}
		var mf manifest
		if err := json.Unmarshal(raw, &mf); err != nil {
			return nil, fmt.Errorf("serve: job %s manifest: %w", id, err)
		}
		stmt, err := parseJobScript(mf.Script)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s script no longer parses: %w", id, err)
		}
		j := &Job{
			ID: mf.ID, Script: mf.Script, Model: mf.Model,
			stmt: stmt, status: mf.JobStatus,
			cancelled: make(chan struct{}),
		}
		m.attachObs(j)
		if mf.FastMath && !stmt.FastMath && !j.status.State.terminal() {
			// Its checkpoints are fast-tier state; resuming them on the
			// statement's exact tier would break bit-identical resume.
			m.settle(j, JobFailed, errors.New("serve: job was submitted with the removed fastmath option; resubmit its script with `having fastmath`"))
		} else if j.status.State.terminal() {
			// The stream of a job that settled in a previous process is
			// born closed: subscribers get the final state and EOF.
			j.events.Close(string(j.status.State))
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n >= m.nextID {
			m.nextID = n + 1
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if j.status.State == JobRunning || j.status.State == JobQueued {
			j.status.State = JobQueued
			resumable = append(resumable, j)
		}
	}
	return resumable, nil
}

// parseJobScript parses a job submission: exactly one run statement. Parse
// errors carry source positions (lang.SyntaxError), so submission failures
// point into the submitted text.
func parseJobScript(script string) (*lang.Run, error) {
	st, err := lang.ParseOne(script)
	if err != nil {
		return nil, err
	}
	q, ok := st.(*lang.Run)
	if !ok {
		return nil, fmt.Errorf("serve: a job must be a run statement, got %s", st)
	}
	return q, nil
}

// SubmitOptions carries no field: everything a job runs under, its kernel
// tier included (`having fastmath`), is in its script.
type SubmitOptions struct{}

// Submit queues a new training job. model names the registry entry the
// trained model publishes under; empty means the statement's assigned query
// name, falling back to the job id.
func (m *Manager) Submit(script, model string) (*Job, error) {
	return m.SubmitJob(script, model, SubmitOptions{})
}

// SubmitJob is Submit under the (empty) SubmitOptions.
func (m *Manager) SubmitJob(script, model string, _ SubmitOptions) (*Job, error) {
	q, err := parseJobScript(script)
	if err != nil {
		return nil, err
	}
	if model == "" {
		model = q.Result
	}
	if model != "" {
		if err := validName(model); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: manager is shut down")
	}
	id := fmt.Sprintf("job-%04d", m.nextID)
	m.nextID++
	if model == "" {
		model = id
	}
	j := &Job{
		ID: id, Script: script, Model: model,
		stmt: q, status: JobStatus{ID: id, Model: model, State: JobQueued},
		cancelled: make(chan struct{}),
	}
	m.attachObs(j)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	// Any failure past this point settles the job as failed — it is already
	// visible in listings and must not linger as a ghost "queued" entry no
	// runner will ever claim.
	if err := m.mfFS.MkdirAll(m.jobDir(id)); err != nil {
		err = fmt.Errorf("serve: job dir: %w", err)
		m.settle(j, JobFailed, err)
		return nil, err
	}
	if err := m.persist(j); err != nil {
		m.settle(j, JobFailed, err)
		return nil, err
	}
	select {
	case m.queue <- j:
		return j, nil
	default:
	}
	err = fmt.Errorf("%w (%d pending)", errQueueFull, m.cfg.QueueDepth)
	m.withdraw(j, err)
	return nil, err
}

// withdraw undoes a submission the full queue refused: the job leaves the
// listing and the disk, so a client retrying on Retry-After leaves nothing
// behind. Should its manifest not come off disk, the job is settled failed
// instead, so a restart cannot bring it back as queued.
func (m *Manager) withdraw(j *Job, err error) {
	dir := m.jobDir(j.ID)
	if m.mfFS.Remove(filepath.Join(dir, "manifest.json")) != nil {
		m.settle(j, JobFailed, err)
		return
	}
	m.mfFS.Remove(dir)
	m.mu.Lock()
	delete(m.jobs, j.ID)
	if i := slices.Index(m.order, j.ID); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.mu.Unlock()
	j.events.Close(string(JobFailed))
}

// Job returns a job by id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job's status in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Job(id); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// StateCounts tallies jobs by state (the health endpoint's view).
func (m *Manager) StateCounts() map[JobState]int {
	counts := map[JobState]int{}
	for _, st := range m.List() {
		counts[st.State]++
	}
	return counts
}

// Cancel stops a job. Queued jobs cancel immediately; a running job's runner
// settles it at its next iteration edge.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("serve: job %q not found", id)
	}
	j.mu.Lock()
	if j.status.State.terminal() {
		state := j.status.State
		j.mu.Unlock()
		return fmt.Errorf("serve: job %s is already %s", id, state)
	}
	select {
	case <-j.cancelled:
	default:
		close(j.cancelled)
	}
	// A pending pause must not outrun the cancel: cleared here, and the
	// runner's iteration edge checks cancellation before the pause flag.
	j.pause = false
	// A queued or paused job has no runner to observe the channel: settle it
	// here, claiming it under the lock that found it idle so no runner picks
	// it up meanwhile. A running job's runner settles it on the next
	// iteration edge.
	idle := j.status.State == JobQueued || j.status.State == JobPaused
	if idle {
		j.status.State = JobCancelled
	}
	j.mu.Unlock()
	if idle {
		m.settle(j, JobCancelled, nil)
	}
	return nil
}

// Pause asks a running job to yield its pool slot at the next iteration
// edge, checkpointing first. Queued jobs cannot pause (they hold no slot).
func (m *Manager) Pause(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("serve: job %q not found", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State != JobRunning {
		return fmt.Errorf("serve: job %s is %s, only running jobs pause", id, j.status.State)
	}
	j.pause = true
	return nil
}

// Resume re-queues a paused job.
func (m *Manager) Resume(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("serve: job %q not found", id)
	}
	j.mu.Lock()
	if j.status.State != JobPaused {
		state := j.status.State
		j.mu.Unlock()
		return fmt.Errorf("serve: job %s is %s, only paused jobs resume", id, state)
	}
	j.pause = false
	j.status.State = JobQueued
	j.mu.Unlock()
	select {
	case m.queue <- j:
		m.persist(j)
		return nil
	default:
		j.mu.Lock()
		j.status.State = JobPaused
		j.mu.Unlock()
		return errQueueFull
	}
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// persist writes the job's manifest atomically and durably. Unique temp
// names matter: a runner and an HTTP-side Cancel may persist the same job
// concurrently, and rename's atomicity makes last-writer-wins safe.
func (m *Manager) persist(j *Job) error {
	j.mu.Lock()
	mf := manifest{JobStatus: j.status, Script: j.Script}
	j.mu.Unlock()
	raw, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	if err := fault.WriteDurable(m.mfFS, filepath.Join(m.jobDir(j.ID), "manifest.json"), raw); err != nil {
		return fmt.Errorf("serve: job %s manifest: %w", j.ID, err)
	}
	return nil
}

// writeCheckpoint serializes the trainer's state into a CRC-framed file,
// fsyncs it (and the directory) into place, and prunes beyond the retention
// window. The trainer is passed explicitly — it is the runner's, taken under
// j.mu once.
func (m *Manager) writeCheckpoint(j *Job, tj *ml4all.TrainJob) error {
	sp := j.trace.Start("checkpoint", -1)
	defer j.trace.End(sp)
	state, err := tj.Checkpoint()
	if err != nil {
		return err
	}
	dir := m.jobDir(j.ID)
	path := filepath.Join(dir, ckptFileName(tj.Iteration()))
	if err := fault.WriteDurable(m.ckptFS, path, encodeCheckpointFrame(state)); err != nil {
		return fmt.Errorf("serve: job %s checkpoint: %w", j.ID, err)
	}
	m.counters.ckptWritten.Add(1)
	m.pruneCheckpoints(dir)
	return nil
}

// retainCheckpoints is how many durable checkpoints a job keeps; older ones
// are pruned after each write. Recovery scans them newest to oldest, so the
// extra retained frames are what corruption falls back to.
const retainCheckpoints = 3

// pruneCheckpoints drops checkpoints beyond the retention window, oldest
// first. Best-effort: a failed remove leaves an extra frame, never loses one.
func (m *Manager) pruneCheckpoints(dir string) {
	names := listCheckpoints(m.ckptFS, dir)
	for i := retainCheckpoints; i < len(names); i++ {
		m.ckptFS.Remove(filepath.Join(dir, names[i]))
	}
}

// Shutdown stops the manager gracefully: submissions are refused, runners
// finish their current iteration, checkpoint their jobs and exit, and
// in-flight jobs are left re-queueable (state running/queued on disk) so a
// new manager on the same directory resumes them. Blocks until the pool has
// drained or ctx expires.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.shutdown)
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// runner is one pool worker: it claims queued jobs and drives each to a
// terminal state, a pause, or a shutdown checkpoint. When a queued job and
// the shutdown are ready together, select may hand it the job: after a
// shutdown it leaves the job as it found it — queued, unopened, its manifest
// saying queued — for the next manager on the directory.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		select {
		case <-m.shutdown:
			return
		case j := <-m.queue:
			if m.closing() {
				return
			}
			m.runJob(j)
		}
	}
}

// closing reports whether Shutdown has begun.
func (m *Manager) closing() bool {
	select {
	case <-m.shutdown:
		return true
	default:
		return false
	}
}

// openJob binds the job to a live trainer. Recovery scans the retained
// checkpoints newest to oldest: a frame that fails its checksum (torn write,
// bit rot) or no longer resumes is counted, skipped, and the next-older one
// tried — the job falls back past corruption instead of failing, losing at
// most the work since the last durable frame. With no usable checkpoint the
// job opens fresh. Catalog access and planning run under sysMu; the trainer
// is job-local.
func (m *Manager) openJob(j *Job) error {
	opts := ml4all.JobOptions{Observer: j.ring, Trace: j.trace}
	m.sysMu.Lock()
	defer m.sysMu.Unlock()
	dir := m.jobDir(j.ID)
	ckpts := listCheckpoints(m.ckptFS, dir)
	rec := -1
	if len(ckpts) > 0 {
		rec = j.trace.Start("recover", -1)
	}
	for _, name := range ckpts {
		raw, err := m.ckptFS.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, fault.ErrCrash) {
				j.trace.End(rec)
				return err // simulated process death: stop, don't burn frames
			}
			m.counters.ckptCorrupt.Add(1)
			continue
		}
		state, err := decodeCheckpointFrame(raw)
		if err != nil {
			m.counters.ckptCorrupt.Add(1)
			continue
		}
		tj, err := m.cfg.System.ResumeJob(j.stmt, state, opts)
		if err != nil {
			m.counters.ckptCorrupt.Add(1)
			continue
		}
		m.counters.ckptVerified.Add(1)
		j.mu.Lock()
		j.job = tj
		j.mu.Unlock()
		j.trace.End(rec)
		return nil
	}
	j.trace.End(rec)
	tj, err := m.cfg.System.OpenJob(j.stmt, opts)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.job = tj
	j.mu.Unlock()
	return nil
}

// runJob drives one claimed job. On return the job is terminal, paused,
// re-queued (shutdown), or failed. A panic anywhere in the drive — a UDF
// blowing up inside Model(), a publish hook, the step hook — fails this job
// with the panic value and stack instead of killing the process; shard-level
// UDF panics are already converted to engine.PanicError by the worker pool
// and arrive here as ordinary Step errors.
func (m *Manager) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			m.counters.recoveredPanics.Add(1)
			m.settle(j, JobFailed, fmt.Errorf("serve: job %s panicked: %v\n%s", j.ID, r, debug.Stack()))
		}
	}()
	j.mu.Lock()
	if j.status.State != JobQueued { // cancelled while queued
		j.mu.Unlock()
		m.replayDone(j)
		return
	}
	needOpen := j.job == nil
	j.status.State = JobRunning
	j.mu.Unlock()

	if needOpen {
		err := m.openJob(j)
		m.replayDone(j)
		if err != nil {
			// Position the failure in the submitted script, like Exec does.
			m.settle(j, JobFailed, fmt.Errorf("statement at %s: %w", j.stmt.At(), err))
			return
		}
	} else {
		m.replayDone(j)
	}
	j.mu.Lock()
	tj := j.job
	j.status.Plan = tj.PlanName()
	j.status.Iteration = tj.Iteration()
	j.mu.Unlock()
	// One write records the start and the chosen plan: loadJobs re-queues a
	// queued job exactly as it does a running one.
	m.persist(j)
	j.events.Append(obs.Event{Type: "state", State: string(JobRunning), Plan: tj.PlanName(), Iter: tj.Iteration()})

	// The train span covers the whole stepping loop; the deferred End
	// closes it on every exit path (End is idempotent — the completion
	// path closes it explicitly before the ledger record snapshots the
	// phase totals).
	train := j.trace.Start("train", -1)
	defer j.trace.End(train)

	// The run's observed T(ε) curve, folded from the trainer's deltas one
	// iteration at a time; a job reopened from a checkpoint or a pause
	// starts from its whole delta history.
	curve := obs.FoldCurve(nil, tj.Deltas(), 0)
	// etaA/etaRem cache the convergence projection between re-fits: the
	// observed curve is re-fitted every 8 iterations, not every event.
	etaA, etaRem := 0.0, -1.0

	ctl := tj.Controller() // nil for a static job: its plan never changes

	lastCkpt := time.Now()
	for !tj.Done() {
		// The iteration edge: cancel, then pause, then shutdown. A cancel
		// racing a pending pause must win, not strand the job in paused; a
		// job stopped by shutdown is left re-queueable, and a new manager on
		// this directory resumes it bit-identically.
		select {
		case <-j.cancelled:
			m.settle(j, JobCancelled, nil)
			return
		default:
		}
		j.mu.Lock()
		pausing := j.pause
		j.mu.Unlock()
		if pausing {
			m.park(j, tj, JobPaused)
			return
		}
		if m.closing() {
			m.park(j, tj, JobQueued)
			return
		}

		err := tj.Step()
		j.mu.Lock()
		j.status.Iteration = tj.Iteration()
		j.mu.Unlock()
		if err == nil && m.cfg.stepHook != nil {
			m.cfg.stepHook(j.ID, tj.Iteration())
		}
		if err != nil {
			m.settle(j, JobFailed, err)
			return
		}
		iter, ds := tj.Iteration(), tj.Deltas() // a Step appends one delta
		curve = obs.FoldCurve(curve, ds, len(ds)-1)
		if iter%8 == 1 {
			etaA, etaRem = obs.CurveETA(curve, tj.Tolerance())
		}
		j.events.Append(obs.Event{
			Type: "progress", Iter: iter, Delta: obs.Finite(ds[len(ds)-1]),
			FittedA: obs.Finite(etaA), EtaIters: etaRem,
		})
		if ctl != nil && ctl.SegStart == iter {
			// The controller just switched plans (its newest history entry):
			// listings and the manifest follow, the stream carries the event.
			j.mu.Lock()
			j.status.Plan = tj.PlanName()
			j.mu.Unlock()
			m.persist(j)
			j.events.Append(obs.Event{Type: "switch", Plan: tj.PlanName(), Iter: iter,
				FittedA: obs.Finite(ctl.History[len(ctl.History)-1].FittedA)})
		}

		if m.cfg.CheckpointEvery > 0 && time.Since(lastCkpt) >= m.cfg.CheckpointEvery {
			if err := m.writeCheckpoint(j, tj); err != nil {
				m.settle(j, JobFailed, err)
				return
			}
			lastCkpt = time.Now()
		}
	}
	j.trace.End(train)
	m.complete(j, tj, curve)
}

// complete publishes the finished model, appends the run's ledger record
// and settles the job. A ledger append failure is counted and logged into
// the metrics, never fails the job — history degrades, training does not.
// A trainer that ended diverged has no model to publish: its weights are
// NaN/Inf, so the job fails and the registry keeps serving what it had.
func (m *Manager) complete(j *Job, tj *ml4all.TrainJob, curve []estimator.Point) {
	res := tj.Result()
	if res.Diverged {
		m.settle(j, JobFailed, fmt.Errorf("diverged at iteration %d: non-finite weights", res.Iterations))
		return
	}
	model := tj.Model()
	mv, err := m.reg.Publish(j.Model, model)
	if err != nil {
		m.settle(j, JobFailed, fmt.Errorf("publishing model: %w", err))
		return
	}
	j.mu.Lock()
	j.status.Iteration = res.Iterations
	j.status.Delta = res.FinalDelta
	j.status.Converged = res.Converged
	j.status.Version = mv.Version
	j.mu.Unlock()
	if m.ledger != nil {
		if err := m.ledger.Append(m.runRecord(j, tj, res, curve)); err != nil {
			m.counters.ledgerErrors.Add(1)
		} else {
			m.counters.ledgerRecords.Add(1)
		}
	}
	dir := m.jobDir(j.ID) // terminal jobs don't resume: drop every checkpoint
	for _, name := range listCheckpoints(m.ckptFS, dir) {
		m.ckptFS.Remove(filepath.Join(dir, name))
	}
	m.settle(j, JobCompleted, nil)
}

// runRecord assembles the completed job's ledger record: dataset identity
// and stats, the plan the optimizer chose (and every re-fit and switch of an
// adaptive job's controller), the kernel tier and backend it executed on, the
// trained weights' fingerprint, the observed T(ε) curve, and where the time
// went (simulated training clock, observed wall time, per-phase span totals).
func (m *Manager) runRecord(j *Job, tj *ml4all.TrainJob, res *ml4all.Result, curve []estimator.Point) obs.Record {
	ds := tj.Dataset()
	st := ds.Stats()
	rec := obs.Record{
		Kind:  "job",
		JobID: j.ID,
		Model: j.Model,
		Dataset: obs.DatasetInfo{
			Fingerprint: ds.Fingerprint(),
			Name:        st.Name,
			Task:        st.Task.String(),
			Points:      st.Points,
			Features:    st.Features,
			Bytes:       st.Bytes,
			Density:     st.Density,
		},
		Plan:        res.PlanName,
		FastMath:    j.stmt.FastMath,
		Backend:     linalg.FastBackend(),
		WeightsHash: obs.WeightsHash(res.Weights),
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		FinalDelta:  obs.Finite(res.FinalDelta),
		SimSeconds:  obs.Finite(float64(res.Time)),
		WallSeconds: j.ring.WallSeconds(),
		Phases:      j.trace.Totals(),
	}
	for _, p := range curve {
		rec.Curve = append(rec.Curve, obs.CurvePoint{Iter: p.Iter, Err: p.Err})
	}
	if ctl := tj.Controller(); ctl != nil {
		rec.Plans = ctl.Plans()
		for _, ev := range ctl.History {
			fittedA, specA, eps := obs.Finite(ev.FittedA), obs.Finite(ev.SpecA), obs.Finite(ev.Epsilon)
			rec.Refits = append(rec.Refits, obs.RefitRecord{Iter: ev.Iter, Plan: ev.Plan, Action: ev.Action,
				FittedA: fittedA, SpecA: specA, Epsilon: eps, Reason: ev.Reason})
			if ev.To != "" {
				rec.Switches = append(rec.Switches, obs.SwitchRecord{Iter: ev.Iter, Clock: obs.Finite(float64(ev.Clock)),
					From: ev.Plan, To: ev.To, FittedA: fittedA, SpecA: specA, Epsilon: eps})
			}
		}
	}
	return rec
}

// settle ends a job in a terminal state: the trainer is released, the event
// stream closed, the manifest written — last, after whatever the caller put
// on disk for this outcome — and, for a job reloaded after a restart, the
// recovering gauge drained.
func (m *Manager) settle(j *Job, state JobState, err error) {
	j.mu.Lock()
	j.status.State = state
	if err != nil {
		j.status.Error = err.Error()
	}
	j.job = nil
	j.mu.Unlock()
	j.events.Close(string(state))
	m.persist(j)
	m.replayDone(j)
}

// park checkpoints a running job and gives up its pool slot in a state it
// resumes from: paused, or queued again for the next manager at shutdown.
func (m *Manager) park(j *Job, tj *ml4all.TrainJob, state JobState) {
	if err := m.writeCheckpoint(j, tj); err != nil {
		m.settle(j, JobFailed, err)
		return
	}
	j.mu.Lock()
	j.status.State = state
	j.mu.Unlock()
	j.events.Append(obs.Event{Type: "state", State: string(state), Iter: tj.Iteration()})
	m.persist(j)
}
