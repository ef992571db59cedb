package linalg

import "math"

// The per-iteration gradient step with its convergence delta, fused into
// one walk over the model (gd.GradientUpdater.UpdateConverge). Each
// component runs
//
//	g := acc[i]·inv
//	g += lambda·old[i]          (only when lambda ≠ 0)
//	w[i] = old[i] + negStep·g
//	acc[i] = +0
//
// and the delta term |w[i] − old[i]| (L1) or (w[i] − old[i])² (L2) is added
// to one running sum in index order. That dependent add is the walk's floor.
// With the SIMD backend on, the AVX2 twins run whole groups of four: each
// lane is one component doing the operations above in the same order, a
// multiply then an add (never an FMA). The four terms then go into the sum
// one at a time with scalar adds, so the bits stay those of the Go loops
// below. Those loops finish the last len(w) mod 4 components, and they are
// the portable path and the tests' oracle. A zero lambda skips its term
// rather than adding 0·old[i]: 0·Inf is NaN and −0 + +0 is +0, so the added
// zero would change bits.

// StepL1 writes the step into w, zeroes acc, and returns Σ|w[i] − old[i]|
// summed in index order. old and acc must be at least len(w) long.
func StepL1(w, old, acc Vector, inv, lambda, negStep float64) float64 {
	old, acc = old[:len(w)], acc[:len(w)]
	var delta float64
	if simdOn && len(w) >= 4 {
		n := len(w) &^ 3
		delta = stepL1SIMD(w[:n], old, acc, inv, lambda, negStep)
		w, old, acc = w[n:], old[n:], acc[n:]
	}
	old, acc = old[:len(w)], acc[:len(w)] // proves the loop's bounds
	for i := range w {
		o, g := old[i], acc[i]*inv
		acc[i] = 0
		if lambda != 0 {
			g += lambda * o
		}
		x := o + negStep*g
		w[i] = x
		delta += math.Abs(x - o)
	}
	return delta
}

// StepL2Sq is StepL1 with the squared difference as the delta term: it
// returns Σ(w[i] − old[i])² in index order, whose root is the L2 delta.
func StepL2Sq(w, old, acc Vector, inv, lambda, negStep float64) float64 {
	old, acc = old[:len(w)], acc[:len(w)]
	var delta float64
	if simdOn && len(w) >= 4 {
		n := len(w) &^ 3
		delta = stepL2SqSIMD(w[:n], old, acc, inv, lambda, negStep)
		w, old, acc = w[n:], old[n:], acc[n:]
	}
	old, acc = old[:len(w)], acc[:len(w)] // proves the loop's bounds
	for i := range w {
		o, g := old[i], acc[i]*inv
		acc[i] = 0
		if lambda != 0 {
			g += lambda * o
		}
		x := o + negStep*g
		w[i] = x
		diff := x - o
		delta += diff * diff
	}
	return delta
}
