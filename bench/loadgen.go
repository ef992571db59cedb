package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is a process of its own. Inside the server's process a
// client goroutine needs one of the runtime's GOMAXPROCS slots to run, and
// while trainers hold them all it waits out their 10 ms time slices: the
// measured tail was the generator's own lateness (5-11 ms late at p99 beside
// ~0.6 ms of service). As a separate process the generator is scheduled by the
// kernel, which runs a thread waking from a timer at once, and the latencies
// are the server's — as they are for a real client on another machine.

// httpClient is an HTTP client bound to one server.
type httpClient struct {
	base   string
	client *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	return &httpClient{base: base, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}}
}

// requestSetSize is how many distinct requests a run rotates over.
const requestSetSize = 96

// requestsFor is the request set of a run: a function of the seed and the
// model's width only, so the load-generator process and the checker in the
// benchmark process build the same one.
func requestsFor(seed int64, dim int) ([]predictReq, error) {
	return buildRequests(rand.New(rand.NewSource(seed)), dim, requestSetSize)
}

// answer is what one predict request came back with. Its fields are exported
// and of fixed size because the load-generator process hands answers to the
// benchmark process with encoding/binary.
type answer struct {
	Req     int32
	Status  int32
	Version int32
	NScores int32
	Scores  [rowsPerRequest]float64
	openLoopSample
}

// predictOnce posts reqs[i] to model name (version 0 = latest) and decodes
// the reply into a. buf is the caller's reusable read buffer.
func (c *httpClient) predictOnce(name string, version int, reqs []predictReq, i int, buf *bytes.Buffer, a *answer) error {
	url := c.base + "/v1/models/" + name + "/predict"
	if version > 0 {
		url += fmt.Sprintf("?version=%d", version)
	}
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(reqs[i].body))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	a.Req, a.Status = int32(i), int32(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var out struct {
		Version int       `json:"version"`
		Scores  []float64 `json:"scores"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return fmt.Errorf("bench: predict reply: %w", err)
	}
	a.Version = int32(out.Version)
	a.NScores = int32(len(out.Scores))
	copy(a.Scores[:], out.Scores)
	return nil
}

// openLoop sends requests on a fixed schedule of rate per second for dur,
// whatever the replies do: request i is due at i/rate, is taken by whichever
// client is free, and is timed from its due time. A transport error aborts
// the phase — the benchmark's workloads are chosen so that none occurs.
func (c *httpClient) openLoop(name string, reqs []predictReq, rate float64, dur time.Duration, clients int) ([]answer, error) {
	total := int(rate * dur.Seconds())
	answers := make([]answer, total)
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pacerThread()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				a := &answers[i]
				a.Due = dueAt(i, rate)
				a.Spun = pace(start, a.Due)
				a.Sent = time.Since(start)
				if err := c.predictOnce(name, 0, reqs, i%len(reqs), &buf, a); err != nil {
					errs[k] = err
					return
				}
				a.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// pacerThread pins the calling goroutine to its own OS thread, for good — the
// thread ends with the goroutine — and sets that thread's timer slack to the
// minimum, so that pace sleeps in the kernel on a high-resolution timer.
// time.Sleep in an otherwise idle Go process wakes through the netpoller,
// whose timeout has millisecond granularity (measured here: 550 µs late at the
// median), and the kernel's default slack adds another 50 µs.
func pacerThread() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a refusal only costs precision
}

// paceSpin is the last stretch before a due time that pace spends spinning
// instead of asleep: a virtual CPU woken by a timer arrives tens to hundreds
// of microseconds late, and a request sent late is charged that lateness.
const paceSpin = 150 * time.Microsecond

// pace returns when due (an offset from start) has come, and how long it
// spun for: processor time the generator takes from the cores it shares with
// the server, which the report shows as spin_core_share.
func pace(start time.Time, due time.Duration) (spun time.Duration) {
	if wait := due - time.Since(start) - paceSpin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early return (signal) only lengthens the spin
	}
	woke := time.Since(start)
	for time.Since(start) < due {
	}
	return max(due-woke, 0)
}

// closedLoop has each client send its next request the moment the previous
// one is answered, for dur: the saturation throughput of the serving path at
// that many callers. Latency here is from send to answer.
func (c *httpClient) closedLoop(name string, reqs []predictReq, dur time.Duration, clients int) ([]answer, time.Duration, error) {
	per := make([][]answer, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := k; time.Since(start) < dur; i += clients {
				var a answer
				a.Due = time.Since(start)
				a.Sent = a.Due
				if err := c.predictOnce(name, 0, reqs, i%len(reqs), &buf, &a); err != nil {
					errs[k] = err
					return
				}
				a.Done = time.Since(start)
				per[k] = append(per[k], a)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []answer
	for k := range per {
		if errs[k] != nil {
			return nil, 0, errs[k]
		}
		all = append(all, per[k]...)
	}
	return all, elapsed, nil
}

// loadSpec is what the benchmark process tells a load-generator process.
type loadSpec struct {
	URL     string        `json:"url"`
	Model   string        `json:"model"`
	Seed    int64         `json:"seed"`
	Dim     int           `json:"dim"`
	Rate    float64       `json:"rate"` // requests per second of an open loop; 0 runs a closed loop
	Dur     time.Duration `json:"dur_ns"`
	Clients int           `json:"clients"`
}

// load runs one phase of predict traffic from a load-generator process and
// returns its answers and how long the phase ran.
func (r *serveRig) load(seed int64, dim int, rate float64, dur time.Duration, clients int) ([]answer, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	spec, err := json.Marshal(loadSpec{URL: r.base, Model: servedModel, Seed: seed, Dim: dim, Rate: rate, Dur: dur, Clients: clients})
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "-loadgen", string(spec))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("load generator: %w", err)
	}
	var head struct{ Count, ElapsedNanos int64 }
	if err := binary.Read(&out, binary.LittleEndian, &head); err != nil {
		return nil, 0, fmt.Errorf("load generator's answers: %w", err)
	}
	answers := make([]answer, head.Count)
	if err := binary.Read(&out, binary.LittleEndian, answers); err != nil {
		return nil, 0, fmt.Errorf("load generator's answers: %w", err)
	}
	return answers, time.Duration(head.ElapsedNanos), nil
}

// loadgenMain is the load-generator process: it builds the request set, warms
// its connections, runs the one phase the spec describes with one thread per
// client, and writes the answers to standard output.
func loadgenMain(specJSON string) error {
	var spec loadSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("load generator spec: %w", err)
	}
	// A closed loop's clients are always busy, so they get one runtime slot
	// per core. An open loop's clients sleep in the kernel until their request
	// is due, and a thread asleep in a system call keeps its slot until the
	// runtime's monitor takes it back, up to 10 ms later: one slot each and one
	// more, free to poll the network whatever the others do. Those slots are
	// not threads that run: only the clients with a request in flight are awake.
	slots := min(spec.Clients, runtime.NumCPU())
	if spec.Rate > 0 {
		slots = spec.Clients + 1
	}
	runtime.GOMAXPROCS(slots)
	reqs, err := requestsFor(spec.Seed, spec.Dim)
	if err != nil {
		return err
	}
	c := newHTTPClient(spec.URL, spec.Clients)
	defer c.client.CloseIdleConnections()
	if _, _, err := c.closedLoop(spec.Model, reqs, 50*time.Millisecond, spec.Clients); err != nil { // warm every connection
		return err
	}
	var answers []answer
	t0 := time.Now()
	if spec.Rate > 0 {
		answers, err = c.openLoop(spec.Model, reqs, spec.Rate, spec.Dur, spec.Clients)
	} else {
		answers, _, err = c.closedLoop(spec.Model, reqs, spec.Dur, spec.Clients)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	w := bufio.NewWriterSize(os.Stdout, 1<<20)
	head := struct{ Count, ElapsedNanos int64 }{int64(len(answers)), elapsed.Nanoseconds()}
	if err := binary.Write(w, binary.LittleEndian, head); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, answers); err != nil {
		return err
	}
	return w.Flush()
}

// getJSON and postJSON are the submitter's plain request helpers.
func (c *httpClient) getJSON(path string, out any) error {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeJSON("GET "+path, resp, out)
}

func (c *httpClient) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeJSON("POST "+path, resp, out)
}

func decodeJSON(what string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: %s: %d %s", what, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}
