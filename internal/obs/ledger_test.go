package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ml4all/internal/fault"
)

// testRecords builds the mix the ledger sees in practice: adaptive runs with
// curves, switches and refits, plus plain static runs — with awkward but
// finite float values that must survive the JSON round trip bit-exactly.
func testRecords(n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec := Record{
			Kind:  "job",
			JobID: "job-000" + string(rune('0'+i)),
			Model: "m",
			Dataset: DatasetInfo{
				Fingerprint: WeightsHash([]float64{float64(i)}),
				Name:        "synth-adult", Task: "logistic",
				Points: 19531 + i, Features: 40, Bytes: 1 << 20, Density: 0.6,
			},
			Plan:        "mgd-batch-1000",
			Backend:     "fast-go",
			WeightsHash: WeightsHash([]float64{1.5, -2.25, 1e-17}),
			Iterations:  137 + i,
			Converged:   i%2 == 0,
			FinalDelta:  1.2345678901234567e-4,
			Curve: []CurvePoint{
				{Iter: 1, Err: 0.5}, {Iter: 7, Err: 0.0625}, {Iter: 137, Err: 9.999999999999999e-5},
			},
			SimSeconds:  42.75,
			WallSeconds: 0.031415926535897934,
			Phases:      map[string]float64{"optimize": 0.25, "train": 1.5},
		}
		if i%2 == 1 { // adaptive shape
			rec.Kind = "adaptive"
			rec.Plans = []string{"mgd-batch-1000", "sgd"}
			rec.Switches = []SwitchRecord{{
				Iter: 50, Clock: 12.5, From: "mgd-batch-1000", To: "sgd",
				FittedA: 3333.25, SpecA: 41.5, Epsilon: 0.015625,
			}}
			rec.Refits = []RefitRecord{
				{Iter: 50, Plan: "mgd-batch-1000", Action: "switch", FittedA: 3333.25, SpecA: 41.5, Epsilon: 0.015625, Reason: "refit a=3333.25 -> switch"},
				{Iter: 100, Plan: "sgd", Action: "converging"},
			}
		}
		out = append(out, rec)
	}
	return out
}

func openTestLedger(t *testing.T, fsys fault.FS, path string) *Ledger {
	t.Helper()
	l, err := OpenLedger(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	fsys := fault.NewFS(nil, "ledger")
	l := openTestLedger(t, fsys, path)

	want := testRecords(4)
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Append stamps the schema; mirror that for the comparison.
	for i := range want {
		want[i].Schema = SchemaVersion
	}

	re := openTestLedger(t, fsys, path)
	got := re.Records()
	if len(got) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d does not round-trip bit-exactly:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if re.Skipped() != 0 {
		t.Fatalf("clean file reported %d skipped lines", re.Skipped())
	}
}

func TestLedgerMissingFileIsEmpty(t *testing.T) {
	l := openTestLedger(t, fault.NewFS(nil, "ledger"), filepath.Join(t.TempDir(), "none.jsonl"))
	if len(l.Records()) != 0 || l.Skipped() != 0 {
		t.Fatalf("missing file: %d records, %d skipped", len(l.Records()), l.Skipped())
	}
}

func TestLedgerSkipsCorruptTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	fsys := fault.NewFS(nil, "ledger")
	l := openTestLedger(t, fsys, path)
	want := testRecords(3)
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	// Tear the file the way a crash mid-write outside the durable protocol
	// would: a trailing partial JSON line.
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
		t.Fatal(err)
	} else {
		if _, err := f.WriteString(`{"schema":1,"kind":"job","plan":"trunc`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	re := openTestLedger(t, fsys, path)
	if len(re.Records()) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(re.Records()), len(want))
	}
	if re.Skipped() != 1 {
		t.Fatalf("Skipped = %d, want 1", re.Skipped())
	}
	// The next Append compacts the damage away.
	if err := re.Append(testRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "trunc") {
		t.Fatal("corrupt line survived the rewriting Append")
	}
	final := openTestLedger(t, fsys, path)
	if len(final.Records()) != len(want)+1 || final.Skipped() != 0 {
		t.Fatalf("after compacting append: %d records, %d skipped", len(final.Records()), final.Skipped())
	}
}

func TestLedgerSkipsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	future := `{"schema":999,"kind":"job","plan":"from-the-future"}` + "\n" +
		`{"schema":1,"kind":"job","plan":"ok","dataset":{"fingerprint":"ab"},"iterations":1,"converged":true,"final_delta":0.1}` + "\n"
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openTestLedger(t, fault.NewFS(nil, "ledger"), path)
	if len(l.Records()) != 1 || l.Records()[0].Plan != "ok" {
		t.Fatalf("records = %+v", l.Records())
	}
	if l.Skipped() != 1 {
		t.Fatalf("Skipped = %d, want 1", l.Skipped())
	}
}

func TestLedgerAppendFaultLeavesHistoryIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	inj, err := fault.FromSpec("ledger.rename=err:1")
	if err != nil {
		t.Fatal(err)
	}
	fsys := fault.NewFS(inj, "ledger")
	l := openTestLedger(t, fsys, path)
	recs := testRecords(2)
	if err := l.Append(recs[0]); err != nil { // hit 0: succeeds
		t.Fatal(err)
	}
	if err := l.Append(recs[1]); err == nil { // hit 1: injected rename failure
		t.Fatal("Append survived an injected rename fault")
	}
	// The failed Append must not have touched memory or disk.
	if len(l.Records()) != 1 {
		t.Fatalf("in-memory history grew to %d after failed Append", len(l.Records()))
	}
	re := openTestLedger(t, fault.NewFS(nil, "ledger"), path)
	if len(re.Records()) != 1 || re.Skipped() != 0 {
		t.Fatalf("on-disk history: %d records, %d skipped", len(re.Records()), re.Skipped())
	}
	if re.Records()[0].JobID != recs[0].JobID {
		t.Fatalf("surviving record = %+v", re.Records()[0])
	}
}

func TestWeightsHash(t *testing.T) {
	a := WeightsHash([]float64{1, 2, 3})
	if len(a) != 16 {
		t.Fatalf("hash %q is not 16 hex digits", a)
	}
	if a != WeightsHash([]float64{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
	if a == WeightsHash([]float64{1, 2, 3.0000000000000004}) {
		t.Fatal("hash ignores a 1-ulp weight change")
	}
}

// FuzzOpenLedger feeds OpenLedger arbitrary file content — what a crash, a
// foreign binary or a hand edit can leave on disk. Opening never errors or
// panics and accounts for every non-blank line as a record or a skip; one
// Append then rewrites the file, so a reopen holds the same records plus the
// new one and skips nothing.
func FuzzOpenLedger(f *testing.F) {
	rec := testRecords(1)[0]
	rec.Schema = SchemaVersion
	good, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(good) + "\n", string(good) + "\n{\"schema\":1,\"plan\":\"BG", "\n \r\n\t\n", "",
		`{"schema":2}`, "null\n[1,2]\n\"job\"", `{"schema":1,"curve":[{"iter":1,"err":1e999}]}`,
		"{\"schema\":1,\"phases\":{},\"curve\":[],\"job_id\":\"\xff\"}\r\n" + string(good),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, content []byte) {
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLedger(fault.OS, path)
		if err != nil {
			t.Fatalf("OpenLedger: %v", err)
		}
		nonBlank := 0
		for _, line := range bytes.Split(content, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				nonBlank++
			}
		}
		before := l.Records()
		if len(before)+l.Skipped() != nonBlank {
			t.Fatalf("%d records + %d skipped, file has %d non-blank lines", len(before), l.Skipped(), nonBlank)
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		again, err := OpenLedger(fault.OS, path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if want := append(before, rec); again.Skipped() != 0 || !reflect.DeepEqual(again.Records(), want) {
			t.Fatalf("reopen holds %+v (%d skipped), want %+v", again.Records(), again.Skipped(), want)
		}
	})
}
