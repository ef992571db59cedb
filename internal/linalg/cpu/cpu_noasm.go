//go:build noasm || !amd64

package cpu

// detect under the noasm tag (or on an architecture without a kernel
// backend): no features, so linalg keeps its portable fast loops.
func detect() Features { return Features{} }
