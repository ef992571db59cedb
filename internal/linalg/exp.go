package linalg

import "math"

// Exact-tier exponentials. math.Exp's amd64 body is one straight-line
// sequence per argument (Shibata's scheme: a CVTSD2SL range reduction, a
// Horner chain, four x·(2+x) doublings and an exponent shift), so it packs
// lane for lane: the SIMD twin issues the same instructions in packed form
// and returns math.Exp's bits. A group of four with a lane math.Exp takes
// off that path — NaN, ±Inf, overflow, a denormal result — goes to the
// scalar loop, which is also the whole path with the backend off. math.Exp
// itself is the oracle: a Go release that moves its bits fails the tests
// instead of moving the twin's silently.

// expVec fills dst[i] = math.Exp(src[i]) for every element, bit for bit.
// dst and src may alias; lengths must match.
func expVec(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		if simdOn && len(src)-i >= 4 {
			i += expVecExactSIMD(dst[i:], src[i:])
		}
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
}

// LogisticCoeffs overwrites every m[j] with logistic regression's gradient
// coefficient at label y[j] and margin m[j], -y[j] / (1 + math.Exp(y[j]*m[j])),
// bit for bit that expression. The SIMD twin evaluates four rows per
// register in the expression's operand order. len(y) must be at least
// len(m).
func LogisticCoeffs(y, m []float64) {
	y = y[:len(m)]
	for j := 0; j < len(m); {
		if simdOn && len(m)-j >= 4 {
			j += logisticCoeffsSIMD(y[j:], m[j:])
		}
		for end := min(j+4, len(m)); j < end; j++ {
			m[j] = -y[j] / (1 + math.Exp(y[j]*m[j]))
		}
	}
}
