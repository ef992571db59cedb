package data

import "strconv"

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanFloat converts the plain decimal number ([+-]digits[.digits][e[+-]digits])
// starting at s[i] and returns the position just past it. ok is false — and
// the caller hands the whole field to strconv.ParseFloat — unless the text
// takes Clinger's fast path: a mantissa below 2^53 and a decimal exponent
// within ±22 are both exact float64s, so ONE correctly-rounded multiply or
// divide yields the correctly-rounded result, the same bits strconv produces
// (including -0). It must stay a lone multiply or divide: a fused
// multiply-add would round differently.
func scanFloat(s string, i int) (v float64, end int, ok bool) {
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var mant uint64
	start := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(s[i]-'0')
	}
	digits, exp := i-start, 0 // mantissa digits seen (at most 19 fit a uint64); decimal exponent
	if i < len(s) && s[i] == '.' {
		i++
		start = i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(s[i]-'0')
		}
		digits += i - start
		exp = start - i
	}
	if digits == 0 || digits > 19 {
		return 0, i, false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(s) && s[i]-'0' <= 9 && e < 1000; i++ {
			e = e*10 + int(s[i]-'0')
		}
		if i == start {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if mant>>53 != 0 || exp < -22 || exp > 22 {
		return 0, i, false
	}
	v = float64(mant)
	if neg {
		v = -v
	}
	if exp < 0 {
		return v / pow10[-exp], i, true
	}
	return v * pow10[exp], i, true
}

// parseFloat is strconv.ParseFloat(s, 64) with the fast path of scanFloat in
// front: same bits, and — since everything else, every malformed field
// included, goes to strconv unchanged — the same errors.
func parseFloat(s string) (float64, error) {
	if v, end, ok := scanFloat(s, 0); ok && end == len(s) {
		return v, nil
	}
	return strconv.ParseFloat(s, 64)
}
