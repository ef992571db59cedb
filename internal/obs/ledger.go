package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"sync"

	"ml4all/internal/fault"
)

// SchemaVersion is stamped into every Record on Append. Bump it when a
// field changes meaning; readers skip records whose schema they do not
// know, exactly like they skip corrupt lines, so old and new binaries can
// share one ledger file. Additive fields (the expected evolution for the
// learned cost model's features) do NOT need a bump — unknown JSON keys are
// ignored and absent ones decode to zero values.
const SchemaVersion = 1

// DatasetInfo identifies and summarizes the dataset a run trained on — the
// join key (Fingerprint) and feature vector (stats) a learned cost model
// warm-starts from.
type DatasetInfo struct {
	Fingerprint string  `json:"fingerprint"`
	Name        string  `json:"name,omitempty"`
	Task        string  `json:"task,omitempty"`
	Points      int     `json:"points"`
	Features    int     `json:"features"`
	Bytes       int64   `json:"bytes"`
	Density     float64 `json:"density"`
}

// CurvePoint is one observed point of the monotone T(ε) sequence.
type CurvePoint struct {
	Iter int     `json:"iter"`
	Err  float64 `json:"err"`
}

// SwitchRecord is a mid-flight plan switch as persisted in the ledger
// (a switching planner.RefitEvent flattened to JSON-safe types).
type SwitchRecord struct {
	Iter    int     `json:"iter"`
	Clock   float64 `json:"clock_seconds"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	FittedA float64 `json:"fitted_a"`
	SpecA   float64 `json:"spec_a"`
	Epsilon float64 `json:"epsilon"`
}

// RefitRecord is one re-optimization check (planner.RefitEvent condensed:
// the decision and the parameters behind it, without the per-plan cost
// table).
type RefitRecord struct {
	Iter    int     `json:"iter"`
	Plan    string  `json:"plan"`
	Action  string  `json:"action"`
	FittedA float64 `json:"fitted_a"`
	SpecA   float64 `json:"spec_a"`
	Epsilon float64 `json:"epsilon"`
	Reason  string  `json:"reason,omitempty"`
}

// Record is one completed run in the ledger — the per-job history the
// ROADMAP's learned cost model consumes: what the data looked like, what
// the planner chose (and re-chose), how convergence actually went, and
// where the time was spent. Float fields must be finite (see Finite); the
// producers sanitize fit-derived values before building a Record.
type Record struct {
	Schema      int                `json:"schema"`
	Kind        string             `json:"kind"` // "job" (serving; adaptive jobs fill Plans/Switches/Refits)
	JobID       string             `json:"job_id,omitempty"`
	Model       string             `json:"model,omitempty"`
	Dataset     DatasetInfo        `json:"dataset"`
	Plan        string             `json:"plan"`
	Plans       []string           `json:"plans,omitempty"`
	FastMath    bool               `json:"fastmath,omitempty"`
	Backend     string             `json:"backend,omitempty"`
	WeightsHash string             `json:"weights_hash,omitempty"`
	Iterations  int                `json:"iterations"`
	Converged   bool               `json:"converged"`
	FinalDelta  float64            `json:"final_delta"`
	Curve       []CurvePoint       `json:"curve,omitempty"`
	Switches    []SwitchRecord     `json:"switches,omitempty"`
	Refits      []RefitRecord      `json:"refits,omitempty"`
	SimSeconds  float64            `json:"sim_seconds,omitempty"`
	WallSeconds float64            `json:"wall_seconds,omitempty"`
	Phases      map[string]float64 `json:"phases,omitempty"`
}

// Ledger is the append-only JSONL run history at a fixed path, written
// through the crash-safe fault.WriteDurable protocol: every Append rewrites
// temp + fsync + rename, so the file on disk is always a complete,
// uncorrupted prefix of the history — a torn write can only ever produce a
// stale-but-valid file or an orphaned temp the manager's sweep removes.
// Opening tolerates damage anyway (a line that does not parse, e.g. from a
// file edited or truncated outside the protocol, is skipped and counted),
// so one bad record never takes down the history.
type Ledger struct {
	mu      sync.Mutex
	fsys    fault.FS
	path    string
	lines   [][]byte // verbatim good lines, no trailing newline
	records []Record
	skipped int
}

// OpenLedger reads the ledger at path (a missing file is an empty ledger).
// Undecodable lines and records with an unknown schema are skipped and
// counted, never fatal; they are dropped from the file on the next Append.
func OpenLedger(fsys fault.FS, path string) (*Ledger, error) {
	l := &Ledger{fsys: fsys, path: path}
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return l, nil
		}
		return nil, fmt.Errorf("obs: opening ledger %s: %w", path, err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Schema <= 0 || rec.Schema > SchemaVersion {
			l.skipped++
			continue
		}
		l.lines = append(l.lines, append([]byte(nil), line...))
		l.records = append(l.records, rec)
	}
	return l, nil
}

// Path returns the ledger's file path.
func (l *Ledger) Path() string { return l.path }

// Append stamps rec with the current schema version and persists the whole
// history durably. On error the in-memory and on-disk state both keep the
// pre-Append history (WriteDurable never tears the target).
func (l *Ledger) Append(rec Record) error {
	rec.Schema = SchemaVersion
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: encoding ledger record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(line) + 1
	for _, ln := range l.lines {
		size += len(ln) + 1
	}
	buf := make([]byte, 0, size)
	for _, ln := range l.lines {
		buf = append(buf, ln...)
		buf = append(buf, '\n')
	}
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if err := fault.WriteDurable(l.fsys, l.path, buf); err != nil {
		return fmt.Errorf("obs: appending ledger record: %w", err)
	}
	l.lines = append(l.lines, line)
	l.records = append(l.records, rec)
	return nil
}

// Records returns a copy of the decoded history in file order.
func (l *Ledger) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// Skipped returns how many damaged or unknown-schema lines OpenLedger
// dropped.
func (l *Ledger) Skipped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.skipped
}

// WeightsHash returns a 64-bit FNV-1a fingerprint of a weight vector's
// exact bits as a 16-hex-digit string — enough to tell two models apart in
// the ledger without storing the vectors.
func WeightsHash(w []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
