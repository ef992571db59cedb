package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ml4all/internal/engine"
	"ml4all/internal/fault"
	"ml4all/internal/obs"
	"ml4all/internal/serve"
)

func obsAndFaultLayers(rc *runCtx, fx *fixtures, unit time.Duration, m map[string]float64) error {
	dir := filepath.Join(rc.outDir, "state", rc.name+"-layers")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// fault: the durable-write protocol (temp file, fsync, rename, directory
	// fsync) at a checkpoint's size for a 100-wide model and for a 2 000-wide
	// one. The fsync is the sandbox filesystem's, not a device's.
	for _, sz := range []struct {
		name  string
		bytes int
	}{{"6k", 6 << 10}, {"48k", 48 << 10}} {
		buf := bytes.Repeat([]byte{0x5a}, sz.bytes)
		path := filepath.Join(dir, "durable-"+sz.name)
		var err error
		times := sampleNs(4*unit, func() {
			if werr := fault.WriteDurable(fault.OS, path, buf); werr != nil {
				err = werr
			}
		})
		if err != nil {
			return err
		}
		m["fault.write_durable_ms."+sz.name+".p50"] = quantile(times, 0.5) / 1e6
		m["fault.write_durable_ms."+sz.name+".p99"] = quantile(times, 0.99) / 1e6
	}

	// obs: the run ledger rewrites its whole history on every append, so the
	// cost at 1 000 records against the cost at one shows the O(n).
	rec := obs.Record{Kind: "job", JobID: "job-0000", Model: "m", Plan: "BGD", Iterations: 150, SimSeconds: 80, WallSeconds: 0.4,
		Dataset: obs.DatasetInfo{Fingerprint: "0123456789abcdef", Name: "jobs.csv", Task: "LogR", Points: 16000, Features: 128, Bytes: 16 << 20, Density: 1}}
	for i := 1; i <= 60; i++ {
		rec.Curve = append(rec.Curve, obs.CurvePoint{Iter: i, Err: 1 / float64(i)})
	}
	for _, n := range []struct {
		name string
		pre  int
	}{{"n1", 0}, {"n1000", 1000}} {
		path := filepath.Join(dir, "ledger-"+n.name+".jsonl")
		if n.pre > 0 {
			rec.Schema = obs.SchemaVersion
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, bytes.Repeat(append(line, '\n'), n.pre), 0o644); err != nil {
				return err
			}
		}
		var times []float64
		for i := 0; i < 7; i++ {
			if n.pre == 0 {
				os.Remove(path)
			}
			led, err := obs.OpenLedger(fault.OS, path)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := led.Append(rec); err != nil {
				return err
			}
			times = append(times, millis(time.Since(t0)))
		}
		m["obs.ledger_append_ms."+n.name] = median(times)
	}
	tr := obs.NewTrace()
	m["obs.trace_span_ns"] = medianNs(unit, func() { tr.End(tr.Start("step", -1)) })
	ring := obs.NewRing(0)
	ev := engine.IterEvent{Iter: 1, Delta: 0.5, SimSeconds: 1, Units: 1000}
	m["obs.ring_observe_ns"] = medianNs(unit, func() { ev.Iter++; ring.ObserveIter(ev) })
	log := obs.NewEventLog(0)
	m["obs.eventlog_append_ns"] = medianNs(unit, func() { log.Append(obs.Event{Type: "progress", Iter: 1, Delta: 0.5}) })
	return nil
}

// serveLayers measures the serving stack's own pieces on the run's live
// server: the predictor without HTTP, the HTTP path around it, what the
// coalescer forms under concurrent callers, the rate ladder, and — from a few
// real jobs — submission, queueing, checkpointing and publishing.
func serveLayers(rc *runCtx, jobFile dataFile, m map[string]float64) error {
	unit := time.Duration(rc.seconds / runSeconds * float64(time.Second))
	rig := rc.rig
	mv, ok := rig.srv.Registry().Get(servedModel, 0)
	if !ok {
		return fmt.Errorf("bench: no %s model to serve", servedModel)
	}
	before := rig.srv.Counters().PredictTotals()

	// Predictor.Predict, no HTTP: one caller, so no coalescing either.
	reqs := make([]serve.PredictRequest, len(rc.reqs))
	for i, r := range rc.reqs {
		if err := json.Unmarshal(r.body, &reqs[i]); err != nil {
			return err
		}
	}
	i := 0
	var perr error
	direct := func() {
		resp := serve.AcquirePredictResponse()
		if err := rig.srv.Predictor().Predict(context.Background(), mv, &reqs[i%len(reqs)], resp); err != nil {
			perr = err
		}
		resp.Release()
		i++
	}
	var times []float64
	for start := time.Now(); time.Since(start) < unit/2; {
		t0 := time.Now()
		direct()
		times = append(times, float64(time.Since(t0).Nanoseconds()))
	}
	if perr != nil {
		return perr
	}
	m["serve.predictor_us.p50"] = quantile(times, 0.5) / 1e3
	m["serve.predictor_us.p99"] = quantile(times, 0.99) / 1e3
	m["serve.predict_allocs_per_op"] = mallocsPer(2000, direct)

	// The same requests over loopback HTTP from one closed-loop client: the
	// difference is routing, JSON both ways, and the kernel's socket path.
	one, _, err := rig.load(rc.seed, rc.dim, 0, unit/2, 1)
	if err != nil {
		return err
	}
	m["serve.http_overhead_us"] = quantile(latenciesMicros(one), 0.5) - m["serve.predictor_us.p50"]

	// Saturation: a closed loop of several clients on one thread per core,
	// and what the coalescer makes of concurrent callers. With one client per
	// core each side keeps waiting for the other and what is measured is how
	// fast the host wakes a sleeping thread (22-27 k rows/s, moving with the
	// neighbours); with several requests always in flight the server never
	// idles (37-39 k rows/s in the same minutes, a third of the spread).
	const saturationClients = 8
	mid := rig.srv.Counters().PredictTotals()
	sat, satElapsed, err := rig.load(rc.seed, rc.dim, 0, 2*unit, saturationClients)
	if err != nil {
		return err
	}
	okRows := 0
	for _, a := range sat {
		if a.Status == 200 {
			okRows += rowsPerRequest
		}
	}
	m["serve.rows_per_s"] = float64(okRows) / satElapsed.Seconds()
	after := rig.srv.Counters().PredictTotals()
	calls, rows := after.Batches-mid.Batches, after.Rows-mid.Rows
	shared, sharedRows := after.CoalescedBatches-mid.CoalescedBatches, after.CoalescedRows-mid.CoalescedRows
	passes := shared + (calls - sharedRows/rowsPerRequest) // shared passes plus the calls that scored alone
	m["serve.kernel_passes"] = float64(passes)
	m["serve.rows_per_pass"] = float64(rows) / math.Max(1, float64(passes))

	// Rate ladder: the highest of three fixed rates that keeps p99 (per
	// second, median over the seconds; from due time, so a growing backlog
	// counts) within 2 ms.
	m["serve.rate_ladder_ok_rps"] = 0
	sent := len(one) + len(sat)
	for _, rate := range []float64{1500, 3000, 6000} {
		rung, _, err := rig.load(rc.seed, rc.dim, rate, 2*unit, openLoopConns)
		if err != nil {
			return err
		}
		sent += len(rung)
		p99, _ := intervalQuantile(rung, 0.99, answer.latencyMicros)
		if p99 <= 2000 {
			m["serve.rate_ladder_ok_rps"] = rate
		}
		if rate == predictRate {
			// The end-to-end run's quiet phase, as the median second sees it.
			m["serve.quiet_p50_us"], _ = intervalQuantile(rung, 0.5, answer.latencyMicros)
			m["serve.quiet_p99_us"] = p99
			m["loadgen.late_p99_us"], _ = intervalQuantile(rung, 0.99, answer.lateMicros)
			okCount := 0
			for _, a := range rung {
				if a.Status == 200 {
					okCount++
				}
			}
			m["loadgen.sent"], m["loadgen.ok"] = float64(len(rung)), float64(okCount)
		}
	}
	total := rig.srv.Counters().PredictTotals()
	m["serve.admission_rejected_share"] = float64(total.Rejected-before.Rejected) / float64(sent)

	// Real jobs through the manager, in process, back to back beside the open
	// loop — serve-mixed's mixed phase in small: at least three jobs, and as
	// many more as it takes to outlast the traffic.
	script := stmtSpec{name: "layers", path: jobFile.Path, epsilon: "0.000000001", maxIter: 150, algo: "BGD"}.text()
	ckptBefore := rig.srv.Counters().FaultTotals().CheckpointsWritten
	var submit, wait []float64
	type loaded struct {
		answers []answer
		err     error
	}
	traffic := make(chan loaded, 1)
	go func() {
		answers, _, err := rig.load(rc.seed, rc.dim, predictRate, 3*unit, openLoopConns)
		traffic <- loaded{answers, err}
	}()
	var beside *loaded
	for jobs := 0; jobs < 3 || beside == nil; jobs++ {
		t0 := time.Now()
		j, err := rig.srv.Manager().SubmitJob(script, "layers", serve.SubmitOptions{})
		if err != nil {
			return err
		}
		submit = append(submit, millis(time.Since(t0)))
		running, err := waitClosed(context.Background(), j)
		if err != nil {
			return err
		}
		if st := j.Status(); st.State != serve.JobCompleted {
			return fmt.Errorf("bench: layer job ended %s: %s", st.State, st.Error)
		}
		// Accepted → running, less the optimizer the job opens with: what is
		// left is waiting for a runner plus loading the catalog entry.
		optimize := j.Trace().Totals()["optimize"] * 1e3
		wait = append(wait, math.Max(0, float64(running-t0.UnixMilli())-optimize))
		if beside == nil {
			select {
			case l := <-traffic:
				beside = &l
			default:
			}
		}
	}
	if beside.err != nil {
		return beside.err
	}
	m["serve.mixed_p99_us"], _ = intervalQuantile(beside.answers, 0.99, answer.latencyMicros)
	m["serve.submit_ms"], m["serve.queue_wait_ms"] = median(submit), median(wait)
	m["serve.checkpoints_per_job"] = float64(rig.srv.Counters().FaultTotals().CheckpointsWritten-ckptBefore) / float64(len(submit))
	m["serve.publish_ms"] = medianNs(unit/4, func() {
		if _, perr := rig.srv.Registry().Publish("layers-publish", mv.Model); perr != nil {
			err = perr
		}
	}) / 1e6
	if err != nil {
		return err
	}
	return serveBoot(rc, jobFile.Path, m)
}

// serveBoot times serve.New on a state directory that holds published models
// and one interrupted job: what a restart costs before the first request.
func serveBoot(rc *runCtx, path string, m map[string]float64) error {
	dir := filepath.Join(rc.outDir, "state", rc.name+"-boot")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Dir: dir, System: newSystem(rc.procs), CheckpointEvery: 100 * time.Millisecond}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	short := stmtSpec{name: "boot", path: path, epsilon: "0.000000001", maxIter: 50, algo: "BGD"}.text()
	if j, err := srv.Manager().SubmitJob(short, "boot", serve.SubmitOptions{}); err != nil {
		return err
	} else if _, err := waitClosed(ctx, j); err != nil {
		return err
	}
	// A job that cannot finish, stopped mid-flight by a graceful shutdown:
	// it is left queued with a checkpoint, for the next boot to resume.
	long := stmtSpec{name: "boot_long", path: path, epsilon: "0.000000001", maxIter: 1000000, algo: "BGD"}.text()
	j, err := srv.Manager().SubmitJob(long, "boot-long", serve.SubmitOptions{})
	if err != nil {
		return err
	}
	for j.Status().Iteration < 20 {
		if st := j.Status(); st.State == serve.JobFailed {
			return fmt.Errorf("bench: boot job failed: %s", st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	cfg.System = newSystem(rc.procs)
	t0 := time.Now()
	srv, err = serve.New(cfg)
	if err != nil {
		return err
	}
	m["serve.boot_ms"] = millis(time.Since(t0))
	if j, ok := srv.Manager().Job(j.ID); ok {
		if err := srv.Manager().Cancel(j.ID); err != nil {
			return err
		}
	}
	return srv.Shutdown(ctx)
}

// waitClosed blocks until the job's event stream ends and returns when the
// job was seen to start running (Unix milliseconds; 0 if it never did).
func waitClosed(ctx context.Context, j *serve.Job) (runningMillis int64, err error) {
	for after, closed := -1, false; !closed; {
		var evs []obs.Event
		if evs, closed, err = j.Events().Wait(ctx, after); err != nil {
			return 0, err
		}
		for _, ev := range evs {
			after = ev.Seq
			if ev.Type == "state" && ev.State == string(serve.JobRunning) {
				runningMillis = ev.TsMillis
			}
		}
	}
	return runningMillis, nil
}
