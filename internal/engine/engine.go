// Package engine executes GD plans over the simulated cluster. It is the
// stand-in for Rheem with Java and Spark underneath (paper Appendix D):
// every operator is placed either centralized ("Java", on the driver) or
// distributed ("Spark", in waves over partitions), chosen per operator by
// whether its input fits in a single data partition — so a plan can and
// usually does execute as a mix of both. The numeric work (parsing,
// gradients, updates) is performed for real; only time is simulated.
//
// Since the parallel-executor refactor the numeric work is also physically
// parallel: the Compute phase (including the line-search loss passes and SVRG
// snapshot sweeps, which are Compute passes) and a custom Transformer's
// materialization run on a worker pool (Options.Workers, default GOMAXPROCS)
// over stable shards of the dataset, each shard into its own accumulator (or
// arena), reduced (or merged) in shard order. Cost charging stays on the
// driver goroutine in a fixed order, so the simulated clock, accounting and
// all numeric results are bit-identical for every worker count — Workers only
// changes wall-clock speed. See DESIGN.md for the full simulated-time vs
// real-work split.
package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ml4all/internal/cluster"
	"ml4all/internal/data"
	"ml4all/internal/gd"
	"ml4all/internal/linalg"
	"ml4all/internal/sampling"
	"ml4all/internal/storage"
)

// Options tunes a single plan execution.
type Options struct {
	// TimeBudget, when positive, stops the run once the simulated clock has
	// advanced that far past the start (the iterations estimator speculates
	// under such a budget, Algorithm 1).
	TimeBudget cluster.Seconds

	// Seed drives the run's sampling RNG. Zero means seed 1.
	Seed int64

	// Workers sizes the real worker pool the Compute phase and a custom
	// Transformer's materialization execute on (line-search loss passes are
	// Compute passes; model evaluation in package metrics is outside the
	// engine and stays serial). 0 (the default) means runtime.GOMAXPROCS(0);
	// 1 forces the serial path. The engine guarantees bit-identical results
	// (weights, iteration counts, deltas, simulated time, accounting) for
	// every worker count: shard boundaries never depend on Workers and
	// partials reduce in a fixed order, so only wall-clock time changes.
	// Custom Transformer/Computer UDFs must honor the concurrency contract
	// documented on gd.Computer when Workers != 1.
	Workers int

	// FastMath opts the run into the tolerance-bounded fast kernel tier:
	// the batched compute path dispatches to the multi-accumulator margin
	// kernels and fused gradient accumulation (gradients.FastGradient),
	// with the logistic sigmoid routed through linalg.ExpFast. Off (the
	// default) keeps the bit-exact kernels, which remain the correctness
	// oracle: fast-tier results agree with them to the per-element bounds
	// TestFastMathWithinEpsilon pins, not bit for bit, so runs with
	// FastMath on are NOT bit-comparable to runs with it off. The sim
	// charges compute at cluster.FastTier's price (cluster.Config.PriceCPU:
	// the executing backend's measured per-flop fraction) where
	// gd.KernelTier resolves it, so plan costing tracks the real speedup.
	FastMath bool

	// Observer, when non-nil, receives one IterEvent after every completed
	// Step, carrying the iteration's convergence delta and the simulator's
	// absolute clock and op accounting at that point. The hook runs on the
	// driver goroutine after all state for the iteration is final; it must
	// not retain the event past the call and must be cheap — the trainer
	// holds no locks but a slow observer stalls training. nil (the
	// default) costs exactly one branch per iteration and changes nothing
	// else: results are bit-identical with and without an observer.
	Observer Observer
}

// Observer receives per-iteration telemetry from a Trainer. Implementations
// must be safe for reuse across runs but are only ever called from the
// single driver goroutine of one run at a time.
type Observer interface {
	ObserveIter(ev IterEvent)
}

// IterEvent is the per-iteration record handed to Options.Observer. All
// fields are absolute (not per-iteration diffs): SimSeconds is the
// simulated clock and Units the cumulative unit count at the end of the
// iteration, so ring buffers can derive increments without the trainer
// doing subtraction on the hot path.
type IterEvent struct {
	Iter       int     // 1-based iteration counter (ctx.Iter)
	Delta      float64 // convergence delta this iteration
	SimSeconds float64 // simulated clock after the iteration
	Units      int64   // cumulative data units processed (Acct.UnitsSeen)
}

// Result reports one plan execution.
type Result struct {
	PlanName   string
	Weights    linalg.Vector
	Iterations int
	Converged  bool // stopped because delta < tolerance
	Budgeted   bool // stopped because the time budget ran out
	Diverged   bool // weights became non-finite
	FinalDelta float64
	Time       cluster.Seconds // simulated training time
	Deltas     []float64       // per-iteration convergence deltas (error sequence)
	Acct       cluster.Accounting
}

// Run executes plan against the dataset in store on sim, advancing sim's
// clock. The caller owns sim; Run neither resets it nor assumes a zero clock,
// so speculation and execution can share one timeline. Run is a thin loop
// over the resumable Trainer (see trainer.go) and is bit-identical to the
// pre-Trainer monolithic loop for every plan and worker count.
func Run(sim *cluster.Sim, store *storage.Store, plan *gd.Plan, opts Options) (*Result, error) {
	t, err := NewTrainer(sim, store, plan, opts)
	if err != nil {
		return nil, err
	}
	for !t.Done() {
		if err := t.Step(); err != nil {
			return nil, err
		}
	}
	return t.Finish(), nil
}

// executor carries the per-run state shared by the phases.
type executor struct {
	sim   *cluster.Sim
	store *storage.Store
	plan  *gd.Plan
	ctx   *gd.Context
	rng   *rand.Rand
	seed  int64

	// workers is the effective pool size; shards is the stable partitioned
	// view the numeric phases fan out over.
	workers int
	shards  []storage.Shard

	// batch is the plan's Computer as gd.Batched returns it, so every pass
	// makes one ComputeBlock call per row block; blockSize is the block width
	// (blockSize in partition.go; tests sweep other widths). tier is
	// gd.KernelTier's answer for the plan's Computer, resolved once per run
	// and the only input to compute billing (Sim.CostCPU).
	batch     gd.BatchComputer
	tier      cluster.Tier
	blockSize int

	sampler sampling.Sampler
	senv    *sampling.Env

	// mat is the transformed data every numeric phase reads, never nil once
	// the trainer is handed out: the dataset's own columnar arena under a
	// stock transformer (zero copies), the arena materialize built from a
	// custom Transform UDF's rows otherwise.
	mat *data.Matrix

	// opsByPart caches the per-partition Ops sums after the first full
	// pass; see computeFull.
	opsByPart []float64

	// Reusable per-pass scratch, all content-deterministic: the flat
	// accumulator arena the per-task partials are carved from (one
	// allocation instead of one buffer per shard), the partial-vector
	// headers, the iteration accumulator, the span list of full passes
	// (fixed per run), and the span/cost buffers rebuilt each pass.
	accArena  []float64
	partials  []linalg.Vector
	accBuf    linalg.Vector
	accZero   bool // accBuf is all zero: fresh, or consumed by a fused driver step
	fullSpans []span
	spanBuf   []span
	costBuf   []cluster.Seconds

	// The compute pass in flight, read by its tasks: the spans and the unit
	// index of each position (nil: the position is the unit); the partials
	// are ex.partials. computeFn is computeSpan bound once per trainer, so a
	// pass makes no closure.
	passSpans []span
	passIdx   []int
	computeFn func(task int) error

	// Worker-pool scaffolding reused across parallel passes (see runTasks).
	errBuf        []error
	taskFn        func(int) error
	taskN         int
	taskNext      atomic.Int64
	taskMinFailed atomic.Int64
	taskWG        sync.WaitGroup
	workFn        func()
}

// stage runs the Stage operator on the driver, optionally feeding it a small
// sample of (parsed) units per Figure 3(b).
func (ex *executor) stage() error {
	var sample []data.Row
	if m := ex.plan.StageSampleSize; m > 0 {
		if m > ex.store.Dataset.N() {
			m = ex.store.Dataset.N()
		}
		sample = make([]data.Row, 0, m)
		var bytes int64
		for i := 0; i < m; i++ {
			u, err := ex.plan.Transformer.Transform(ex.store.Dataset.Raw[i], ex.ctx)
			if err != nil {
				return fmt.Errorf("engine: staging sample: %w", err)
			}
			sample = append(sample, u)
			bytes += ex.store.Dataset.UnitBytes(i)
		}
		ex.sim.RunLocal(ex.sim.CostParse(m, bytes))
	}
	ex.sim.RunLocal(ex.sim.CostCPU(cluster.RowTier, 1, float64(ex.ctx.NumFeatures)))
	return ex.plan.Stager.Stage(sample, ex.ctx)
}

// stockTransformer reports whether the plan uses the unmodified format
// transformer for the dataset's own format, in which case re-parsing Raw is
// guaranteed to reproduce the dataset's columnar arena and the engine adopts
// it instead (cost is charged identically either way).
func (ex *executor) stockTransformer() bool {
	ft, ok := ex.plan.Transformer.(gd.FormatTransformer)
	return ok && ft.Format == ex.store.Dataset.Format
}

// distributedInput applies the Appendix D placement rule: distribute iff the
// operator's input does not fit in a single data partition (unless the plan
// pins a mode).
func (ex *executor) distributedInput(bytes int64) bool {
	return ex.distributedInputMode(bytes, ex.plan.Mode)
}

func (ex *executor) distributedInputMode(bytes int64, mode gd.ExecMode) bool {
	switch mode {
	case gd.CentralizedMode:
		return false
	case gd.DistributedMode:
		return true
	default:
		return bytes > ex.store.Layout.PartitionBytes
	}
}
