package ml4all

// SaveModel/LoadModel round-trip coverage: the model registry persists every
// published version through this pair, so weights must survive bit-exactly
// (dense-trained and sparse-trained models alike), the header metadata must
// round-trip for every task kind, and corrupted files must fail loudly
// instead of producing a silently wrong model.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

func TestModelRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
	}{
		{
			// Dense-trained shape: every coordinate populated, including
			// values that stress %.17g round-tripping.
			name: "dense-svm",
			m: &Model{
				Name: "dense", Task: data.TaskSVM, PlanName: "BGD(eager)",
				Weights:    linalg.Vector{0.1, -2.5e-17, 1.0 / 3.0, 4e300, -0.0, 7},
				Iterations: 123, TrainTime: 45.675, Converged: true,
			},
		},
		{
			// Sparse-trained shape: mostly-zero weights, as high-dimensional
			// LIBSVM datasets produce.
			name: "sparse-logr",
			m: &Model{
				Name: "sparse", Task: data.TaskLogisticRegression, PlanName: "MGD(lazy,bernoulli)",
				Weights:    linalg.Vector{0, 0, 1e-9, 0, 0, 0, -3.25, 0, 0, 0.5},
				Iterations: 7, TrainTime: 0, Converged: false,
			},
		},
		{
			name: "linr",
			m: &Model{
				Name: "reg", Task: data.TaskLinearRegression, PlanName: "SGD(eager,random)",
				Weights:    linalg.Vector{1.5},
				Iterations: 9999, TrainTime: 1e-3, Converged: true,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "m.model")
			if err := SaveModel(path, tc.m); err != nil {
				t.Fatal(err)
			}
			got, err := LoadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Weights.Equal(tc.m.Weights, 0) {
				t.Fatalf("weights differ:\n got %v\nwant %v", got.Weights, tc.m.Weights)
			}
			if got.Task != tc.m.Task {
				t.Fatalf("task %v != %v", got.Task, tc.m.Task)
			}
			if got.PlanName != tc.m.PlanName {
				t.Fatalf("plan %q != %q", got.PlanName, tc.m.PlanName)
			}
			if got.Iterations != tc.m.Iterations {
				t.Fatalf("iterations %d != %d", got.Iterations, tc.m.Iterations)
			}
			if got.Converged != tc.m.Converged {
				t.Fatalf("converged %v != %v", got.Converged, tc.m.Converged)
			}
			if got.TrainTime != tc.m.TrainTime {
				t.Fatalf("traintime %v != %v", got.TrainTime, tc.m.TrainTime)
			}
		})
	}
}

// SaveModel goes through the durable-write protocol: saving over a model
// replaces it whole and strands no temp file, and a save that fails leaves
// the bytes that were there.
func TestSaveModelReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	// A 250-byte name: the file itself fits NAME_MAX, the ".tmp-<name>-*"
	// sibling the protocol writes first cannot be created — a failure that,
	// unlike a read-only directory, also stops a test running as root.
	for _, tc := range []struct {
		name     string
		wantFail bool
	}{{"m.model", false}, {strings.Repeat("m", 250), true}} {
		path := filepath.Join(dir, tc.name)
		older := &Model{Name: "m", Task: data.TaskSVM, PlanName: "BGD(eager)", Weights: linalg.Vector{1, 2, 3, 4, 5, 6, 7, 8}}
		newer := &Model{Name: "m", Task: data.TaskSVM, PlanName: "SGD(eager,random)", Weights: linalg.Vector{-0.5}}
		if err := os.WriteFile(path, EncodeModel(older), 0o644); err != nil {
			t.Fatal(err)
		}
		err := SaveModel(path, newer)
		want := newer
		if tc.wantFail {
			if err == nil {
				t.Fatalf("%d-byte name: SaveModel succeeded, want the temp file to be uncreatable", len(tc.name))
			}
			want = older
		} else if err != nil {
			t.Fatal(err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, EncodeModel(want)) {
			t.Fatalf("%d-byte name: file holds %q (err %v), want plan %s whole", len(tc.name), raw, err, want.PlanName)
		}
		if got, err := LoadModel(path); err != nil || got.PlanName != want.PlanName {
			t.Fatalf("%d-byte name: LoadModel = %+v, %v", len(tc.name), got, err)
		}
	}
	if strays, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(strays) != 0 {
		t.Fatalf("stranded temp files: %v", strays)
	}
}

// sealed appends a valid checksum trailer to hand-written model text, so the
// loader gets past its integrity check to the parse error under test.
func sealed(content string) string {
	return fmt.Sprintf("%s%s%08x\n", content, modelCRCPrefix, crc32.Checksum([]byte(content), modelCRCTable))
}

func TestLoadModelCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name, content, wantErr string
	}{
		{"bad-weight", "# ml4all model x task=SVM\n0.5\nnot-a-number\n", "bad weight"},
		{"empty", "", "no weights"},
		{"header-only", "# ml4all model x task=SVM plan=BGD iterations=3\n", "no weights"},
		{"bad-iterations", "# ml4all model x iterations=many\n1\n", "bad iterations"},
		{"bad-converged", "# ml4all model x converged=perhaps\n1\n", "bad converged"},
		{"bad-traintime", "# ml4all model x traintime=soon\n1\n", "bad traintime"},
		{"unknown-task", "# ml4all model x task=KMeans\n1\n", "unknown task"},
		// The task decides how the weights score: a file must name it in
		// its header, never fall back to the zero-value task.
		{"no-header", "0.5\n-1.25\n", "does not start with"},
		{"no-task", "# ml4all model x plan=BGD iterations=3\n0.5\n", "names no task"},
		{"task-outside-header", "# note task=SVM\n0.5\n", "does not start with"},
		{"header-after-weights", "0.5\n# ml4all model x task=SVM\n", "does not start with"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadModel(write(tc.name, sealed(tc.content)))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
	if _, err := LoadModel(filepath.Join(dir, "does-not-exist")); err == nil {
		t.Fatal("missing file must error")
	}
}

// A model file cut after any whole line — before its trailer, so no checksum
// is left to mismatch — must not load as a shorter model.
func TestLoadModelTruncatedAtLineBoundary(t *testing.T) {
	full := EncodeModel(&Model{
		Name: "m", Task: data.TaskSVM, PlanName: "BGD(eager)",
		Weights: linalg.Vector{1, 2, 3, 4, 5}, Iterations: 3,
	})
	if _, err := DecodeModel(full, "m"); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	for n := 0; n < len(lines)-1; n++ { // every proper prefix of whole lines
		cut := bytes.Join(lines[:n], nil)
		path := filepath.Join(t.TempDir(), "cut.model")
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(path)
		if err == nil || !strings.Contains(err.Error(), "corrupt or torn file") {
			t.Fatalf("cut after %d lines: want a corrupt-or-torn error, got %v (model %+v)", n, err, m)
		}
	}
}

// FuzzDecodeModel feeds the model decoder arbitrary bytes: it must never
// panic, and any input it accepts must survive EncodeModel → DecodeModel with
// the same task, plan, iteration count, convergence flag, train time and
// weight bits.
func FuzzDecodeModel(f *testing.F) {
	var seeds [][]byte
	for _, m := range []*Model{
		{Name: "s", Task: data.TaskSVM, PlanName: "BGD(eager)", Weights: linalg.Vector{0.1, -0.0, 4e300}, Iterations: 12, TrainTime: 1.5, Converged: true},
		{Name: "l", Task: data.TaskLogisticRegression, PlanName: "MGD(lazy,bernoulli)", Weights: linalg.Vector{0, 1e-9, -3.25}, Iterations: 7},
		{Name: "r", Task: data.TaskLinearRegression, PlanName: "SGD(eager,random)", Weights: linalg.Vector{1.5}, Iterations: 9999, TrainTime: 1e-3, Converged: true},
	} {
		seeds = append(seeds, EncodeModel(m))
	}
	full := seeds[0]
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x01
	seeds = append(seeds,
		full[:len(full)/2], // truncated mid-file
		flipped,            // one flipped byte: checksum mismatch
		full[:bytes.LastIndex(full, []byte(modelCRCPrefix))], // no trailer
		[]byte(sealed("0.5\n-1.25\n")),                       // no header, so no task
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Sealing the input with a valid trailer lets mutations past the
		// checksum and into the parser.
		for _, in := range [][]byte{raw, []byte(sealed(string(raw)))} {
			roundTrip(t, in)
		}
	})
}

// roundTrip checks an input DecodeModel accepts decodes the same again after
// EncodeModel.
func roundTrip(t *testing.T, raw []byte) {
	t.Helper()
	m, err := DecodeModel(raw, "fuzz")
	if err != nil {
		return
	}
	again, err := DecodeModel(EncodeModel(m), "fuzz")
	if err != nil {
		t.Fatalf("re-encoded model does not decode: %v (model %+v)", err, m)
	}
	if again.Task != m.Task || again.PlanName != m.PlanName || again.Iterations != m.Iterations ||
		again.Converged != m.Converged || math.Float64bits(float64(again.TrainTime)) != math.Float64bits(float64(m.TrainTime)) {
		t.Fatalf("metadata changed across re-encode: %+v -> %+v", m, again)
	}
	if len(again.Weights) != len(m.Weights) {
		t.Fatalf("weights: %d -> %d", len(m.Weights), len(again.Weights))
	}
	for i := range m.Weights {
		if math.Float64bits(again.Weights[i]) != math.Float64bits(m.Weights[i]) {
			t.Fatalf("weight %d: %v -> %v", i, m.Weights[i], again.Weights[i])
		}
	}
}

// TestExecErrorsCarryStatementPosition pins the serving-oriented error
// contract: a failure executing statement k of a script names k and the
// statement's source position, so job-submission failures are actionable.
func TestExecErrorsCarryStatementPosition(t *testing.T) {
	sys := testSystem()
	ds := testDataset(t, "covtype", 800)
	sys.RegisterDataset("train.txt", ds)
	script := `Q1 = run classification on train.txt having epsilon 0.05, max iter 40;
persist Qmissing on out.model;`
	outs, err := sys.Exec(script)
	if err == nil {
		t.Fatal("want an error from the bad persist")
	}
	if len(outs) != 1 {
		t.Fatalf("the first statement should have executed, got %d outputs", len(outs))
	}
	msg := err.Error()
	if !strings.Contains(msg, "statement 2 at 2:1") {
		t.Fatalf("error lacks statement index/position: %q", msg)
	}
	if !strings.Contains(msg, "Qmissing") {
		t.Fatalf("error lost its cause: %q", msg)
	}
}
