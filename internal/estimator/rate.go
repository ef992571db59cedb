package estimator

// Rate classifies the convergence behaviour of an error sequence. The paper
// (Section 5) observes that gradient methods on convex functions exhibit
// three standard rates — linear, superlinear of order p, quadratic — all
// identifiable purely from the error sequence; the estimator's curve fit is
// justified by that observation, and this classifier makes it inspectable.
type Rate int

// Convergence rates.
const (
	RateUnknown Rate = iota
	RateSublinear
	RateLinear
	RateSuperlinear
	RateQuadratic
)

// String returns the rate name.
func (r Rate) String() string {
	switch r {
	case RateSublinear:
		return "sublinear"
	case RateLinear:
		return "linear"
	case RateSuperlinear:
		return "superlinear"
	case RateQuadratic:
		return "quadratic"
	default:
		return "unknown"
	}
}

// ClassifyRate inspects the tail of a monotone error sequence and reports
// its convergence rate. The test is the standard one: with
// q_i = ε_{i+1}/ε_i, a (roughly) constant q < 1 means linear convergence;
// q → 0 means superlinear, and ε_{i+1}/ε_i² bounded means quadratic;
// q → 1 from below means sublinear (the O(1/i) regime of plain GD, where
// the paper's a/ε fit is the right model).
func ClassifyRate(seq []Point) Rate {
	if len(seq) < 4 {
		return RateUnknown
	}
	tail := seq
	if len(tail) > 12 {
		tail = tail[len(tail)-12:]
	}
	var qs []float64
	var quadRatios []float64
	for i := 0; i+1 < len(tail); i++ {
		e0, e1 := tail[i].Err, tail[i+1].Err
		if e0 <= 0 || e1 <= 0 {
			continue
		}
		qs = append(qs, e1/e0)
		quadRatios = append(quadRatios, e1/(e0*e0))
	}
	if len(qs) < 3 {
		return RateUnknown
	}
	mean := 0.0
	for _, q := range qs {
		mean += q
	}
	mean /= float64(len(qs))

	// Quadratic: ε_{i+1}/ε_i² stays bounded by a modest constant while the
	// plain ratio collapses.
	bounded := true
	for _, r := range quadRatios {
		if r > 10 {
			bounded = false
			break
		}
	}
	switch {
	case bounded && mean < 0.2:
		return RateQuadratic
	case mean < 0.5:
		return RateSuperlinear
	case mean < 0.95:
		return RateLinear
	case mean < 1.0000001:
		return RateSublinear
	default:
		return RateUnknown
	}
}
