package gd

import (
	"fmt"

	"ml4all/internal/data"
	"ml4all/internal/gradients"
	"ml4all/internal/step"
)

// Algo identifies the GD algorithm family of a plan.
type Algo int

// The three fundamental GD algorithms (Section 2) plus the Appendix C
// variants expressible in the abstraction.
const (
	BGD Algo = iota
	SGD
	MGD
	SVRG
	LineSearchBGD
)

// String returns the algorithm name.
func (a Algo) String() string {
	switch a {
	case BGD:
		return "BGD"
	case SGD:
		return "SGD"
	case MGD:
		return "MGD"
	case SVRG:
		return "SVRG"
	case LineSearchBGD:
		return "BGD-linesearch"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// TransformPlacement is the lazy-transformation dimension of the plan space
// (Section 6): eager parses the whole dataset upfront; lazy commutes
// Transform inside the loop, after Sample.
type TransformPlacement int

// Transform placements.
const (
	Eager TransformPlacement = iota
	Lazy
)

// String returns "eager" or "lazy".
func (p TransformPlacement) String() string {
	if p == Lazy {
		return "lazy"
	}
	return "eager"
}

// SamplingKind is the sampling-strategy dimension of the plan space
// (Section 6, Figure 4).
type SamplingKind int

// Sampling strategies.
const (
	NoSampling        SamplingKind = iota // BGD: every unit, every iteration
	Bernoulli                             // full scan, select with probability b/n
	RandomPartition                       // per draw: random partition, random unit
	ShuffledPartition                     // shuffle one partition, take sequentially
)

// String returns the strategy name as used in the paper's figures.
func (s SamplingKind) String() string {
	switch s {
	case NoSampling:
		return "none"
	case Bernoulli:
		return "bernoulli"
	case RandomPartition:
		return "random"
	case ShuffledPartition:
		return "shuffle"
	default:
		return fmt.Sprintf("SamplingKind(%d)", int(s))
	}
}

// ExecMode optionally pins where operators run, overriding ML4all's
// data-size-driven hybrid placement (Appendix D). The ablation benches use it.
type ExecMode int

// Execution modes.
const (
	AutoMode        ExecMode = iota // hybrid: centralized iff input fits one partition
	CentralizedMode                 // everything on the driver ("pure Java")
	DistributedMode                 // everything in cluster waves ("pure Spark")
)

// String returns the mode name.
func (m ExecMode) String() string {
	switch m {
	case AutoMode:
		return "auto"
	case CentralizedMode:
		return "centralized"
	case DistributedMode:
		return "distributed"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// Plan is one point in the GD plan space: an algorithm, its operator
// implementations and the physical choices (transform placement, sampling
// strategy, batch size) the optimizer searches over.
type Plan struct {
	Algorithm Algo
	Transform TransformPlacement
	Sampling  SamplingKind
	BatchSize int // 1 for SGD, b for MGD, ignored for BGD

	Transformer Transformer
	Stager      Stager
	Computer    Computer
	Updater     Updater
	Converger   Converger
	Looper      Looper
	Step        step.Size

	Tolerance float64
	MaxIter   int

	Mode ExecMode

	// TransformMode, when not AutoMode, overrides Mode for the Transform
	// phase only. The Bismarck baseline needs it: its Prepare UDF
	// parallelizes while its fused Compute+Update is serialized.
	TransformMode ExecMode

	// UpdateFrequency is SVRG's m: every m-th iteration recomputes the full
	// batch gradient snapshot. Ignored by other algorithms.
	UpdateFrequency int

	// StageSampleSize, when positive, hands Stage that many data units (the
	// Figure 3(b) variant where Stage initializes parameters from a sample).
	StageSampleSize int
}

// Name returns the plan label used in the paper's figures, e.g.
// "SGD-lazy-shuffle" or "BGD".
func (p Plan) Name() string {
	if p.Sampling == NoSampling {
		if p.Transform == Lazy {
			return p.Algorithm.String() + "-lazy"
		}
		return p.Algorithm.String()
	}
	return fmt.Sprintf("%s-%s-%s", p.Algorithm, p.Transform, p.Sampling)
}

// FullPass reports whether (1-based) iteration iter computes over every
// unit instead of a drawn sample: always for a plan without a Sample
// operator, and on SVRG's snapshot iterations.
func (p Plan) FullPass(iter int) bool {
	return p.Sampling == NoSampling || p.Algorithm == SVRG && svrgFullIteration(iter, p.UpdateFrequency)
}

// Validate reports the first structural problem with the plan.
func (p Plan) Validate() error {
	switch {
	case p.Transformer == nil, p.Stager == nil, p.Computer == nil,
		p.Updater == nil, p.Converger == nil, p.Looper == nil, p.Step == nil:
		return fmt.Errorf("gd: plan %s has a nil operator", p.Name())
	case p.MaxIter <= 0:
		return fmt.Errorf("gd: plan %s needs MaxIter > 0", p.Name())
	case p.Algorithm != BGD && p.Algorithm != LineSearchBGD && p.BatchSize <= 0:
		return fmt.Errorf("gd: plan %s needs a positive batch size", p.Name())
	case (p.Algorithm == BGD || p.Algorithm == LineSearchBGD) && p.Sampling != NoSampling:
		return fmt.Errorf("gd: BGD plans take no Sample operator, got %s", p.Sampling)
	case p.Algorithm != BGD && p.Algorithm != LineSearchBGD && p.Sampling == NoSampling:
		return fmt.Errorf("gd: plan %s requires a sampling strategy", p.Name())
	case p.Transform == Lazy && p.Sampling == Bernoulli:
		return fmt.Errorf("gd: lazy transformation with Bernoulli sampling is never beneficial (Section 6)")
	case p.Algorithm == SVRG && p.UpdateFrequency <= 0:
		return fmt.Errorf("gd: SVRG needs UpdateFrequency > 0")
	}
	return nil
}

// Params bundles the task-level knobs shared by every plan built for a query.
type Params struct {
	Task      data.TaskKind
	Format    data.Format
	Gradient  gradients.Gradient // nil => ForTask default
	Lambda    float64            // L2 regularization strength
	Step      step.Size          // nil => step.Default()
	Tolerance float64            // <= 0 => 1e-3, the language default
	MaxIter   int                // <= 0 => 1000
	BatchSize int                // MGD batch; <= 0 => 1000, the paper's setting
	Converger Converger          // nil => L1Converger (Listing 5)
	Mode      ExecMode
}

func (p Params) withDefaults() Params {
	if p.Gradient == nil {
		p.Gradient = gradients.ForTask(p.Task)
	}
	if p.Step == nil {
		p.Step = step.Default()
	}
	if p.Tolerance <= 0 {
		p.Tolerance = 1e-3
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 1000
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 1000
	}
	if p.Converger == nil {
		p.Converger = L1Converger{}
	}
	return p
}

func (p Params) base(algo Algo, tp TransformPlacement, sk SamplingKind, batch int) Plan {
	return Plan{
		Algorithm:   algo,
		Transform:   tp,
		Sampling:    sk,
		BatchSize:   batch,
		Transformer: FormatTransformer{Format: p.Format},
		Stager:      ZeroStager{},
		Computer:    GradientComputer{Gradient: p.Gradient},
		Updater:     GradientUpdater{Reg: gradients.L2{Lambda: p.Lambda}},
		Converger:   p.Converger,
		Looper:      ToleranceLooper{},
		Step:        p.Step,
		Tolerance:   p.Tolerance,
		MaxIter:     p.MaxIter,
		Mode:        p.Mode,
	}
}

// NewBGD builds the single BGD plan (eager transform, no sampling).
func NewBGD(p Params) Plan {
	p = p.withDefaults()
	return p.base(BGD, Eager, NoSampling, 0)
}

// NewSGD builds an SGD plan with the given physical choices.
func NewSGD(p Params, tp TransformPlacement, sk SamplingKind) Plan {
	p = p.withDefaults()
	return p.base(SGD, tp, sk, 1)
}

// NewMGD builds an MGD plan with the given physical choices and the Params'
// batch size.
func NewMGD(p Params, tp TransformPlacement, sk SamplingKind) Plan {
	p = p.withDefaults()
	return p.base(MGD, tp, sk, p.BatchSize)
}

// ForAlgo builds the default plan for an algorithm: BGD as-is, SGD/MGD with
// eager transformation and shuffled-partition sampling (callers interested in
// other physical choices use NewSGD/NewMGD directly, and the planner
// enumerates all of them).
func ForAlgo(p Params, a Algo) (Plan, error) {
	switch a {
	case BGD:
		return NewBGD(p), nil
	case SGD:
		return NewSGD(p, Eager, ShuffledPartition), nil
	case MGD:
		return NewMGD(p, Eager, ShuffledPartition), nil
	case SVRG:
		return NewSVRG(p, 0), nil
	case LineSearchBGD:
		return NewLineSearchBGD(p, 0.5), nil
	default:
		return Plan{}, fmt.Errorf("gd: unknown algorithm %v", a)
	}
}
