// Package synth generates the synthetic stand-ins for the paper's Table 2
// dataset suite. The real LIBSVM files (adult … higgs) and the authors'
// 5-160 GB dense SVM data are unavailable offline, so each generator
// reproduces the dataset's statistical *shape* — cardinality, dimensionality,
// density, task, label balance, separability and (for rcv1) skew — at a
// configurable scale factor. The figures' qualitative behaviour depends on
// exactly those properties plus the byte size relative to partitions and
// cache, all of which survive scaling.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ml4all/internal/data"
	"ml4all/internal/linalg"
)

// Spec describes a synthetic dataset to generate.
type Spec struct {
	Name    string
	Task    data.TaskKind
	N       int     // number of points
	D       int     // number of features
	Density float64 // fraction of non-zero features per point (1 => dense)
	// Noise is the label-noise level: the probability of flipping a
	// classification label, or the stddev of additive regression noise.
	Noise float64
	// Skew, in [0,1), orders points so that label/feature distribution
	// drifts along the dataset — consecutive points (hence partitions)
	// become correlated, which is what makes shuffled-partition sampling
	// lose accuracy on rcv1 (Figure 12).
	Skew float64
	// Margin scales the ground-truth weight vector; larger margins make the
	// task easier (fewer GD iterations to a given tolerance).
	Margin float64
	// Gap, for classification tasks, rejects points whose raw margin
	// |w*·x| falls below Gap standard deviations of the margin
	// distribution, carving a separation band around the boundary. Larger
	// gaps make the classes more separable: stochastic plans then draw
	// zero-gradient (or near-zero) points often and converge in few
	// iterations, the behaviour the paper's SVM datasets exhibit (Table 4:
	// 4-8 SGD iterations on svm1-svm3).
	Gap float64
	// Binary generates 0/1 feature values (the shape of adult/covtype's
	// one-hot columns); otherwise values are Gaussian, normalized so
	// E‖x‖₂ ≈ 1, which keeps the paper's shared step size (1/√i) stable
	// across tasks.
	Binary bool
	Seed   int64
}

// roundVal truncates a feature value to 4 significant digits — the compact
// text encoding the generated Raw lines use. The stored numeric value is the
// rounded one, so parsing Raw reproduces Units exactly.
func roundVal(v float64) float64 {
	s := strconv.FormatFloat(v, 'g', 4, 64)
	r, _ := strconv.ParseFloat(s, 64)
	return r
}

// Generate materializes the dataset described by s.
func Generate(s Spec) (*data.Dataset, error) {
	if s.N <= 0 || s.D <= 0 {
		return nil, fmt.Errorf("synth: %s needs positive N and D, got %d×%d", s.Name, s.N, s.D)
	}
	if s.Density <= 0 || s.Density > 1 {
		return nil, fmt.Errorf("synth: %s needs density in (0,1], got %g", s.Name, s.Density)
	}
	if s.Margin == 0 {
		s.Margin = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// Ground-truth model.
	truth := make(linalg.Vector, s.D)
	for i := range truth {
		truth[i] = s.Margin * rng.NormFloat64() / math.Sqrt(float64(s.D)*s.Density)
	}

	nnzPer := int(math.Max(1, math.Round(s.Density*float64(s.D))))
	dense := s.Density >= 0.999
	// Normalize non-binary feature values so E‖x‖₂ ≈ 1.
	valScale := 1 / math.Sqrt(float64(nnzPer))

	// Points are generated straight into the columnar arena: dense rows fill
	// the strided values buffer in place, sparse rows go through reused
	// index/value scratch — no per-point allocation either way.
	var b *data.MatrixBuilder
	if dense {
		b = data.NewDenseMatrixBuilder(s.N, s.D)
	} else {
		b = data.NewMatrixBuilder(s.N, s.N*nnzPer)
	}
	scratchIdx := make([]int32, 0, nnzPer)
	scratchVal := make([]float64, 0, nnzPer)
	seen := make(map[int32]bool, nnzPer)

	genVal := func(drift float64) float64 {
		if s.Binary {
			return 1
		}
		return roundVal((rng.NormFloat64() + drift) * valScale)
	}

	// The raw margin w*·x is roughly N(0, σ²) with σ = Margin for binary
	// features (nnz ones against truth entries of variance Margin²/nnz) and
	// σ = Margin/√nnz for normalized Gaussian features (inner products of
	// 1/√nnz-scale values concentrate). The rejection threshold is Gap·σ.
	marginSigma := s.Margin
	if !s.Binary {
		marginSigma /= math.Sqrt(float64(nnzPer))
	}
	gapThreshold := s.Gap * marginSigma

	for i := 0; i < s.N; i++ {
		// Skew shifts which features fire and the label prior as a
		// function of position in the file.
		drift := 0.0
		if s.Skew > 0 {
			drift = s.Skew * (float64(i)/float64(s.N) - 0.5) * 2
		}
		var denseRow linalg.Vector
		if dense {
			// One strided arena row, reserved once and refilled in place on
			// gap-rejection retries.
			row, err := b.DenseRowBuffer()
			if err != nil {
				return nil, err
			}
			denseRow = row
		}
		var margin float64
		attempts := 0
	regenerate:
		attempts++
		if dense {
			for j := range denseRow {
				denseRow[j] = genVal(drift)
			}
			margin = denseRow.Dot(truth)
		} else {
			scratchIdx = scratchIdx[:0]
			scratchVal = scratchVal[:0]
			// Skewed datasets concentrate early points on low feature
			// indices and late points on high ones.
			base := 0
			span := s.D
			if s.Skew > 0 {
				span = int(float64(s.D) * (1 - s.Skew/2))
				base = int(float64(s.D-span) * float64(i) / float64(s.N))
			}
			clear(seen)
			for len(scratchIdx) < nnzPer {
				j := int32(base + rng.Intn(span))
				if seen[j] {
					continue
				}
				seen[j] = true
				scratchIdx = append(scratchIdx, j)
				scratchVal = append(scratchVal, genVal(drift))
			}
			// Normalize the scratch row the way the parsers do (indices are
			// distinct by construction, so this only sorts).
			n, err := linalg.SortDedup(scratchIdx, scratchVal)
			if err != nil {
				return nil, err
			}
			scratchIdx, scratchVal = scratchIdx[:n], scratchVal[:n]
			margin = linalg.SparseDot(scratchIdx, scratchVal, truth)
		}

		var label float64
		switch s.Task {
		case data.TaskLinearRegression:
			label = roundVal(margin + s.Noise*rng.NormFloat64())
		default: // classification: SVM or logistic
			// Cap rejection attempts so a mis-specified Gap degrades into
			// extra boundary points instead of an endless loop.
			if gapThreshold > 0 && math.Abs(margin) < gapThreshold && attempts < 200 {
				goto regenerate
			}
			label = 1.0
			if margin < 0 {
				label = -1
			}
			if s.Noise > 0 && rng.Float64() < s.Noise {
				label = -label
			}
		}
		if dense {
			b.CommitDenseRow(label)
		} else if err := b.AppendSparse(label, scratchIdx, scratchVal); err != nil {
			return nil, err
		}
	}

	ds := data.FromMatrix(s.Name, s.Task, b.Build())
	if ds.NumFeatures < s.D {
		ds.NumFeatures = s.D
	}
	return ds, nil
}

// MustGenerate is Generate for specs known statically correct; it panics on
// error and is intended for the registry and tests.
func MustGenerate(s Spec) *data.Dataset {
	ds, err := Generate(s)
	if err != nil {
		panic(err)
	}
	return ds
}
