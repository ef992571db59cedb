package data

import (
	"regexp"
	"testing"
)

func fpDataset(t *testing.T, name string, n int, tweak func(ds *Dataset)) *Dataset {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = NewSparseRow(float64(2*(i%2)-1), []int32{0, int32(i%7) + 1}, []float64{1, float64(i) / 16})
	}
	ds := datasetOf(t, name, TaskSVM, rows)
	if tweak != nil {
		tweak(ds)
	}
	return ds
}

func TestFingerprintDeterministic(t *testing.T) {
	a := fpDataset(t, "fp", 500, nil)
	b := fpDataset(t, "fp", 500, nil)
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa != fb {
		t.Fatalf("identical datasets fingerprint differently: %s vs %s", fa, fb)
	}
	if fa != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(fa) {
		t.Fatalf("fingerprint %q is not 16 hex digits", fa)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpDataset(t, "fp", 500, nil).Fingerprint()
	cases := map[string]*Dataset{
		"different name":   fpDataset(t, "fp2", 500, nil),
		"different length": fpDataset(t, "fp", 501, nil),
		"edited raw line": fpDataset(t, "fp", 500, func(ds *Dataset) {
			ds.Raw[0] = ds.Raw[0] + " extra"
		}),
		"edited sampled line": fpDataset(t, "fp", 500, func(ds *Dataset) {
			// Line 250 is one of the 64 evenly-spaced samples of a 500-line
			// dataset; the fingerprint must see content there, not just size.
			ds.Raw[250] = "9 1:0.123"
		}),
	}
	for what, ds := range cases {
		if ds.Fingerprint() == base {
			t.Fatalf("%s: fingerprint collision with base", what)
		}
	}
}

func TestFingerprintSmallDatasets(t *testing.T) {
	// Fewer raw lines than the sample budget must not panic or divide by
	// zero, including the empty dataset.
	for _, n := range []int{0, 1, 2, 63} {
		ds := fpDataset(t, "tiny", n, nil)
		if fp := ds.Fingerprint(); len(fp) != 16 {
			t.Fatalf("n=%d: fingerprint %q", n, fp)
		}
	}
}
