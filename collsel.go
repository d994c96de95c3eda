// Package collsel is an arrival-pattern-aware selection toolkit for MPI
// collective algorithms, reproducing "MPI Collective Algorithm Selection in
// the Presence of Process Arrival Patterns" (Salimi Beni, Cosenza, Hunold;
// IEEE CLUSTER 2024) as a self-contained Go library.
//
// Everything runs on a deterministic discrete-event simulation of a
// hierarchical compute cluster: an MPI-like runtime with eager/rendezvous
// point-to-point messaging, the Open MPI 4.1.x collective algorithms of the
// paper's Table II, imperfect per-process clocks with HCA-style
// synchronization, machine noise models, a PMPI-style collective tracer and
// an NAS-FT proxy application.
//
// The package exposes the high-level workflow:
//
//	machine := collsel.Hydra()
//	sel, err := collsel.Select(collsel.SelectConfig{
//	    Machine: machine, Collective: collsel.Alltoall,
//	    MsgBytes: 32768, Procs: 256,
//	})
//	fmt.Println("use", sel.Recommended.Name) // robust across arrival patterns
//
// and re-exports the underlying building blocks (platforms, patterns,
// algorithms, the micro-benchmark harness, the measurement matrix and the
// FT proxy) for finer-grained use; see the examples/ directory.
package collsel

import (
	"context"
	"time"

	"collsel/internal/apps/dltrain"
	"collsel/internal/apps/ft"
	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/decision"
	"collsel/internal/expt"
	"collsel/internal/fault"
	"collsel/internal/microbench"
	"collsel/internal/model"
	"collsel/internal/mpi"
	"collsel/internal/netmodel"
	_ "collsel/internal/papaware" // register the PAP-aware extension algorithms
	"collsel/internal/pattern"
	"collsel/internal/runner"
	"collsel/internal/sim"
	"collsel/internal/trace"
)

// --- Platforms ---------------------------------------------------------------

// Platform describes a simulated parallel machine.
type Platform = netmodel.Platform

// Link is one latency/bandwidth tier of a platform's network.
type Link = netmodel.Link

// NoiseProfile parameterizes a machine's system noise.
type NoiseProfile = netmodel.NoiseProfile

// ClockProfile parameterizes local-clock imperfection.
type ClockProfile = netmodel.ClockProfile

// Machine presets (see internal/netmodel for the parameter rationale).
var (
	SimCluster = netmodel.SimCluster
	Hydra      = netmodel.Hydra
	Galileo100 = netmodel.Galileo100
	Discoverer = netmodel.Discoverer
)

// MachineByName resolves a preset platform ("Hydra", "Galileo100",
// "Discoverer", "SimCluster"); nil if unknown.
func MachineByName(name string) *Platform { return netmodel.ByName(name) }

// Machines returns all built-in platforms.
func Machines() []*Platform { return netmodel.Presets() }

// --- Collectives and algorithms ------------------------------------------------

// Collective enumerates the supported operations.
type Collective = coll.Collective

// Supported collectives.
const (
	Reduce        = coll.Reduce
	Allreduce     = coll.Allreduce
	Alltoall      = coll.Alltoall
	Bcast         = coll.Bcast
	Allgather     = coll.Allgather
	Gather        = coll.Gather
	Scatter       = coll.Scatter
	Barrier       = coll.Barrier
	ReduceScatter = coll.ReduceScatter
	Alltoallv     = coll.Alltoallv
)

// Algorithm is one collective implementation; Args is a rank's invocation
// view (used when writing custom algorithms).
type (
	Algorithm = coll.Algorithm
	Args      = coll.Args
)

// Rank, Request and Message expose the MPI-like runtime surface needed to
// implement custom collective algorithms (Send/Recv/Isend/Irecv/Sendrecv,
// Wtime, Compute). As with MPI_Wait, Request.Wait releases the request:
// wait each one exactly once.
type (
	Rank    = mpi.Rank
	Request = mpi.Request
	Message = mpi.Message
)

// Algorithm registry access.
var (
	// Algorithms returns all registered algorithms of a collective.
	Algorithms = coll.Algorithms
	// TableII returns the Open MPI Table II algorithms, ascending by ID.
	TableII = coll.TableII
	// AlgorithmByID resolves a Table II algorithm id.
	AlgorithmByID = coll.ByID
	// AlgorithmByName resolves a canonical or SimGrid algorithm name.
	AlgorithmByName = coll.ByName
	// RegisterAlgorithm adds a user-defined algorithm to the registry.
	RegisterAlgorithm = coll.Register
)

// --- Arrival patterns ------------------------------------------------------------

// Shape identifies an arrival-pattern shape; Pattern is a concrete
// per-process delay vector.
type (
	Shape   = pattern.Shape
	Pattern = pattern.Pattern
)

// The pattern shapes of the paper's Fig. 3 (plus the NoDelay baseline).
const (
	NoDelay      = pattern.NoDelay
	Ascending    = pattern.Ascending
	Descending   = pattern.Descending
	LastDelayed  = pattern.LastDelayed
	FirstDelayed = pattern.FirstDelayed
	RandomShape  = pattern.Random
	VShape       = pattern.VShape
	InverseV     = pattern.InverseV
	HalfDelayed  = pattern.HalfDelayed
)

// Pattern construction and I/O.
var (
	// GeneratePattern materializes (shape, procs, maxSkewNs, seed).
	GeneratePattern = pattern.Generate
	// PatternFromDelays wraps measured per-process delays.
	PatternFromDelays = pattern.FromDelays
	// ReadPatternFile parses a one-line-per-process pattern file.
	ReadPatternFile = pattern.ReadFile
	// ArtificialShapes returns the paper's eight artificial shapes.
	ArtificialShapes = pattern.ArtificialShapes
	// AllShapes returns NoDelay plus the eight artificial shapes.
	AllShapes = pattern.AllShapes
)

// --- Micro-benchmarking ------------------------------------------------------------

// BenchConfig configures a single micro-benchmark run (one algorithm, one
// message size, one pattern), following the paper's Listing 1 methodology.
type BenchConfig = microbench.Config

// BenchResult aggregates a run's repetitions; LastDelay is the d-hat metric.
type BenchResult = microbench.Result

// RunBenchmark executes one micro-benchmark.
var RunBenchmark = microbench.Run

// --- Measurement matrix and selection ------------------------------------------------

// Matrix is a pattern x algorithm table of mean last-delay measurements,
// with the paper's analyses (optimization potential, robustness classes,
// normalized scores, runtime prediction) as methods.
type Matrix = core.Matrix

// Choice is a ranked algorithm with its robustness score.
type Choice = core.Choice

// Prediction is an estimated application runtime (Fig. 9 estimator).
type Prediction = core.Prediction

// GridConfig describes a full pattern x algorithm measurement grid;
// BuildMatrix measures it.
type GridConfig = expt.GridConfig

// Skew-magnitude policies for BuildMatrix.
const (
	SkewAvgRuntime   = expt.SkewAvgRuntime
	SkewPerAlgorithm = expt.SkewPerAlgorithm
	SkewFixed        = expt.SkewFixed
)

// BuildMatrix measures a full grid and returns the matrix plus the
// per-algorithm no-delay runtimes. BuildMatrixCtx adds cancellation; both
// execute cells on the parallel memoizing grid engine, with results
// bit-identical at any worker count. BuildMatrixDegraded keeps going past
// failed cells (crashes, exhausted retransmissions, watchdog trips) and
// reports them instead of aborting.
var (
	BuildMatrix         = expt.BuildMatrix
	BuildMatrixCtx      = expt.BuildMatrixCtx
	BuildMatrixDegraded = expt.BuildMatrixDegraded
)

// --- Fault injection --------------------------------------------------------------------

// FaultProfile configures deterministic fault injection: message drops with
// retransmission, transient link degradation, stragglers and rank crashes.
// The zero value disables injection entirely.
type FaultProfile = fault.Profile

// Fault-event channels identify which transport message class a drop
// decision applies to (used by custom analyses of fault plans).
const (
	FaultChannelEager = fault.ChannelEager
	FaultChannelRTS   = fault.ChannelRTS
	FaultChannelData  = fault.ChannelData
)

// FaultPlan is a materialized per-platform fault schedule; NewFaultPlan
// derives one deterministically from (platform, size, seed, profile).
type FaultPlan = fault.Plan

// NewFaultPlan builds the deterministic fault schedule a world with this
// configuration would use (nil when the profile is disabled).
var NewFaultPlan = fault.NewPlan

// FaultError is the typed failure surfaced when a rank crashes or a message
// exhausts its retransmission budget.
type FaultError = mpi.FaultError

// DegradedReport summarizes the failed cells of a fault-tolerant grid
// build; DegradedCell is one entry.
type (
	DegradedReport = expt.DegradedReport
	DegradedCell   = expt.DegradedCell
)

// --- Tracing and the FT proxy ---------------------------------------------------------

// Tracer is the PMPI-style collective tracer.
type Tracer = trace.Tracer

// NewTracer creates a tracer for procs ranks.
var NewTracer = trace.New

// FTConfig and FTResult parameterize the NAS-FT proxy application.
type (
	FTConfig = ft.Config
	FTResult = ft.Result
	FTClass  = ft.Class
)

// FT problem classes and runner.
var (
	FTClassA = ft.ClassA
	FTClassB = ft.ClassB
	FTClassC = ft.ClassC
	FTClassD = ft.ClassD
	RunFT    = ft.Run
)

// TrainConfig and TrainResult parameterize the data-parallel training
// proxy (imbalanced gradient compute + Allreduce per step).
type (
	TrainConfig = dltrain.Config
	TrainResult = dltrain.Result
)

// RunTraining executes the training proxy.
var RunTraining = dltrain.Run

// AsyncOp is the handle of a non-blocking collective; IstartCollective
// launches one on a progress actor that overlaps the caller's computation
// while sharing the rank's network ports.
type AsyncOp = mpi.AsyncOp

// IstartCollective starts a collective algorithm non-blockingly
// (MPI_Icollective semantics).
var IstartCollective = coll.Istart

// --- Baselines and strategies ----------------------------------------------------------

// LibraryDefault returns the algorithm an Open MPI-style fixed decision
// logic would pick for (collective, comm size, message size) — the
// deployment baseline that never sees arrival patterns.
var LibraryDefault = decision.Fixed

// Strategy identifies a selection strategy in comparisons.
type Strategy = expt.Strategy

// The three compared strategies.
const (
	StrategyDefault = expt.StrategyDefault
	StrategyNoDelay = expt.StrategyNoDelay
	StrategyRobust  = expt.StrategyRobust
)

// StrategyComparison evaluates library-default vs. no-delay-tuned vs.
// pattern-robust selection on one measurement grid.
type StrategyComparison = expt.StrategyComparison

// CompareStrategies builds a grid and evaluates the three strategies;
// CompareStrategiesCtx adds cancellation; CompareStrategiesOn evaluates
// them on an existing matrix.
var (
	CompareStrategies    = expt.CompareStrategies
	CompareStrategiesCtx = expt.CompareStrategiesCtx
	CompareStrategiesOn  = expt.CompareStrategiesOn
)

// Gantt renders a traced collective call as an ASCII timeline (the
// paper's Fig. 2 visualization).
var Gantt = trace.Gantt

// TraceCall is one recorded collective invocation.
type TraceCall = trace.Call

// --- Analytical model tier -------------------------------------------------------------

// ModelSpec identifies one analytical (closed-form) selection cell and
// ModelOutcome its result; see internal/model. The model tier answers the
// same robustness question as Select in microseconds instead of
// milliseconds, trading simulation fidelity for closed-form cost
// estimates — cmd/modelcheck audits the two tiers' rank agreement.
type (
	ModelSpec    = model.Spec
	ModelOutcome = model.Outcome
)

var (
	// ModelSelect runs the paper's selection methodology on modeled costs.
	ModelSelect = model.Select
	// ModelTopK returns the model's top-k candidates in candidate order —
	// the primitive behind WithPruneTopK.
	ModelTopK = model.TopK
)

// --- High-level selection --------------------------------------------------------------

// SelectConfig parameterizes the one-call selection workflow.
type SelectConfig struct {
	// Machine is the platform model; required.
	Machine *Platform
	// Collective under selection; required.
	Collective Collective
	// MsgBytes is the message size (per pair for Alltoall); required.
	MsgBytes int
	// Procs defaults to Machine.Size().
	Procs int
	// Root rank for rooted collectives.
	Root int
	// MaxSkewNs fixes the pattern magnitude; 0 derives it from the average
	// no-delay runtime of the algorithm set (the paper's default).
	MaxSkewNs int64
	// Factor scales the derived skew magnitude when MaxSkewNs is 0 (the
	// paper studies 0.5/1.0/1.5; 0 means 1.0).
	Factor float64
	// Reps is the per-cell repetition count (default: 5 on noisy machines).
	Reps int
	// Warmup repetitions are run but excluded from the statistics.
	Warmup int
	// Seed drives the machine's noise and clocks.
	Seed int64
	// Workers bounds the number of concurrent cell simulations; 0 uses
	// GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
	// Progress, when non-nil, is called after every measured cell with
	// (done, total) over the selection's whole grid.
	Progress func(done, total int)
	// Faults configures deterministic fault injection for every measured
	// cell; the zero value disables it. Under injection the selection runs
	// in degraded mode: cells that crash, exhaust their retransmission
	// budget or trip the watchdog exclude their algorithm from the ranking
	// instead of aborting, and the Selection reports Degraded/Excluded/
	// FaultCounts.
	Faults FaultProfile
	// WatchdogNs arms each cell's virtual-time watchdog (0 disables it): a
	// simulation whose next event would exceed this virtual time is aborted
	// with a diagnostic naming every blocked rank.
	WatchdogNs int64
	// Algorithms overrides the candidate set; nil benchmarks the Table II
	// algorithms of the collective (all registered ones when the collective
	// has no Table II set).
	Algorithms []Algorithm
	// PruneTopK, when positive, lets the analytical model tier
	// (internal/model) rank the candidate set first and simulates only the
	// top K algorithms — model-guided grid pruning. 0 runs the full dense
	// sweep.
	PruneTopK int
}

// Option adjusts a SelectConfig; see SelectCtx.
type Option func(*SelectConfig)

// WithReps sets the per-cell repetition count.
func WithReps(n int) Option { return func(c *SelectConfig) { c.Reps = n } }

// WithWarmup sets the per-cell warmup repetition count.
func WithWarmup(n int) Option { return func(c *SelectConfig) { c.Warmup = n } }

// WithSeed sets the simulation seed.
func WithSeed(s int64) Option { return func(c *SelectConfig) { c.Seed = s } }

// WithFactor sets the skew factor applied to the derived pattern magnitude
// (the paper's 0.5/1.0/1.5 study).
func WithFactor(f float64) Option { return func(c *SelectConfig) { c.Factor = f } }

// WithParallelism bounds the number of concurrent cell simulations; n <= 0
// means GOMAXPROCS. The result is bit-identical at any parallelism.
func WithParallelism(n int) Option { return func(c *SelectConfig) { c.Workers = n } }

// WithProgress installs a per-cell progress callback (done, total over the
// selection's grid).
func WithProgress(fn func(done, total int)) Option {
	return func(c *SelectConfig) { c.Progress = fn }
}

// WithFaults enables deterministic fault injection with the given profile
// (and degraded-mode selection; see SelectConfig.Faults).
func WithFaults(p FaultProfile) Option { return func(c *SelectConfig) { c.Faults = p } }

// WithWatchdog arms each cell's virtual-time watchdog at d nanoseconds.
// Prefer WithWatchdogDuration, which takes a typed time.Duration.
func WithWatchdog(d int64) Option { return func(c *SelectConfig) { c.WatchdogNs = d } }

// WithWatchdogDuration arms each cell's virtual-time watchdog at d of
// simulated time. It is the typed-duration form of WithWatchdog: one
// nanosecond of time.Duration is one nanosecond of virtual time (see
// sim.FromDuration / sim.ToDuration for the conversion pair).
func WithWatchdogDuration(d time.Duration) Option {
	return func(c *SelectConfig) { c.WatchdogNs = sim.FromDuration(d) }
}

// WithAlgorithms overrides the candidate algorithm set.
func WithAlgorithms(algs ...Algorithm) Option {
	return func(c *SelectConfig) { c.Algorithms = algs }
}

// WithPruneTopK enables model-guided grid pruning: the analytical model
// tier pre-ranks the candidates and only the top k are simulated. k <= 0
// runs the full dense sweep.
func WithPruneTopK(k int) Option { return func(c *SelectConfig) { c.PruneTopK = k } }

// Selection is the outcome of the pattern-aware selection workflow.
type Selection struct {
	// Recommended is the most robust algorithm: smallest average normalized
	// runtime across the eight artificial arrival patterns.
	Recommended Algorithm
	// ConventionalChoice is what a synchronized (no-delay) micro-benchmark
	// would pick.
	ConventionalChoice Algorithm
	// Ranking lists all algorithms, best (most robust) first.
	Ranking []Choice
	// Matrix is the underlying measurement grid for further analysis. In a
	// degraded selection it is the pruned (survivors-only) matrix.
	Matrix *Matrix
	// Degraded is true when fault injection failed at least one grid cell;
	// the ranking then covers only the surviving algorithms.
	Degraded bool
	// Excluded lists the algorithms dropped from a degraded ranking because
	// at least one of their cells failed.
	Excluded []Algorithm
	// FaultCounts maps an algorithm name to its number of failed cells
	// (empty when not degraded).
	FaultCounts map[string]int
	// Report carries the per-cell failure details of a degraded selection
	// (nil when fault injection and the watchdog are disabled).
	Report *DegradedReport
}

// Select runs the paper's full selection methodology: benchmark every
// Table II algorithm of the collective under the no-delay baseline and the
// eight artificial arrival patterns, rank by average normalized runtime,
// and return the most robust choice. It is a thin wrapper around SelectCtx
// with a background context.
func Select(cfg SelectConfig) (*Selection, error) {
	return SelectCtx(context.Background(), cfg)
}

// SelectCtx is the context-aware selection entry point. Functional options
// override the corresponding SelectConfig fields:
//
//	sel, err := collsel.SelectCtx(ctx, cfg,
//	    collsel.WithReps(5), collsel.WithFactor(1.5),
//	    collsel.WithParallelism(8), collsel.WithProgress(report))
//
// The grid is measured on a worker pool (GOMAXPROCS-wide by default) with
// per-cell seeds derived from grid coordinates, so the outcome is
// bit-identical at any parallelism; finished cells are memoized in a
// process-wide cache, so repeating an identical selection is free.
//
// Cancellation is cooperative all the way down: when ctx is cancelled (or
// its deadline passes), in-flight simulation kernels abort promptly
// mid-grid rather than running their cells to completion, and the aborted
// partial results are never memoized — a retry under a live context
// recomputes them. Cancellation is wall-clock control, not cell identity:
// it can never change the bit-identical result of a completed selection.
func SelectCtx(ctx context.Context, cfg SelectConfig, opts ...Option) (*Selection, error) {
	for _, o := range opts {
		o(&cfg)
	}
	var eng *runner.Engine
	if cfg.Workers > 0 {
		// A bounded pool that still shares the process-wide cell cache.
		eng = runner.New(runner.WithWorkers(cfg.Workers), runner.WithCache(runner.DefaultCache()))
	}
	out, err := expt.SelectRobustCtx(ctx, expt.SelectSpec{
		Platform:   cfg.Machine,
		Collective: cfg.Collective,
		MsgBytes:   cfg.MsgBytes,
		Procs:      cfg.Procs,
		Root:       cfg.Root,
		MaxSkewNs:  cfg.MaxSkewNs,
		Factor:     cfg.Factor,
		Reps:       cfg.Reps,
		Warmup:     cfg.Warmup,
		Seed:       cfg.Seed,
		Faults:     cfg.Faults,
		WatchdogNs: cfg.WatchdogNs,
		Algorithms: cfg.Algorithms,
		PruneTopK:  cfg.PruneTopK,
		Runner:     eng,
		Progress:   cfg.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &Selection{
		Recommended:        out.Ranking[0].Algorithm,
		ConventionalChoice: out.Conventional,
		Ranking:            out.Ranking,
		Matrix:             out.Matrix,
		Degraded:           out.Degraded,
		Excluded:           out.Excluded,
		FaultCounts:        out.FaultCounts,
		Report:             out.Report,
	}, nil
}
