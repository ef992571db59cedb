package data

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkParseFloat holds parseFloat to strconv.ParseFloat on one input: the
// same bits (−0 and NaN payloads included) and the same error text.
func checkParseFloat(t *testing.T, s string) {
	t.Helper()
	got, gerr := parseFloat(s)
	want, werr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseFloat(%q) = %v (%#x), strconv gives %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("parseFloat(%q) error = %v, strconv gives %v", s, gerr, werr)
	}
}

var parseFloatSeeds = []string{
	"-0", "0", "+0.0", "-0e5", "1e22", "1e23", "1e-22", "1e-23", "9007199254740991", "9007199254740992",
	"9007199254740993", "1e", "1e+", "0x1p-2", "1_0", "inf", "-Inf", "nan", " 1", "1 ", "", ".", ".5", "5.",
	"+-1", "1.5e3", "1E-3", "123456789012345", "1234567890123456789", "12345678901234567890",
	"0.000000000000000000001", "1e999", "1e-999", "1e0000000000000000000001", "4.9e-324", "1.7976931348623157e308",
	"0.1", "0.30000000000000004", "-1.25", "3e0", "1.50",
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range parseFloatSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParseFloat(t, s) })
}

// TestParseFloatMatchesStrconv runs the seeds and a 200 000-value table —
// every rendering the datasets use (%g shortest, fixed decimals, exponents),
// sized to land on both sides of each fast-path limit — against strconv.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, s := range parseFloatSeeds {
		checkParseFloat(t, s)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		var s string
		switch i % 5 {
		case 0: // what the generators write: a few significant digits
			s = strconv.FormatFloat(math.Round(rng.NormFloat64()*1e4)/1e4, 'g', -1, 64)
		case 1: // shortest round-trip text of an arbitrary double, 16-17 digits
			s = strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		case 2: // integer mantissas around 2^53 with exponents around ±22
			s = strconv.FormatUint(1<<53-500+uint64(rng.Intn(1000)), 10) + "e" + strconv.Itoa(rng.Intn(50)-25)
		case 3: // fixed-point text with 0-20 fractional digits
			s = strconv.FormatFloat(rng.NormFloat64()*math.Pow10(rng.Intn(12)-4), 'f', rng.Intn(21), 64)
		case 4: // up to 19 digits split anywhere by a point, any small exponent
			d := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
			k := rng.Intn(len(d) + 1)
			s = d[:k] + "." + d[k:] + "E" + strconv.Itoa(rng.Intn(60)-30)
			if rng.Intn(2) == 0 {
				s = "-" + s
			}
		}
		checkParseFloat(t, s)
	}
}
