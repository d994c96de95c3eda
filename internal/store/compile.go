package store

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/expt"
	"collsel/internal/fault"
	"collsel/internal/netmodel"
	"collsel/internal/runner"
)

// CompileConfig describes one offline compilation: the cross product of
// collectives, process counts and message sizes to pre-select on a single
// machine model.
type CompileConfig struct {
	// Platform is the machine model; required.
	Platform *netmodel.Platform
	// Collectives to compile (default: Reduce, Allreduce, Alltoall — the
	// paper's Table II set).
	Collectives []coll.Collective
	// ProcsList are the communicator sizes (default: Platform.Size()).
	ProcsList []int
	// Sizes is the message-size ladder in bytes (default: the paper's
	// 8 B .. 1 MiB decades).
	Sizes []int
	// Seed, Factor, Reps, Warmup, Faults and WatchdogNs parameterize every
	// cell's selection exactly as collsel.SelectCtx would.
	Seed       int64
	Factor     float64
	Reps       int
	Warmup     int
	Faults     fault.Profile
	WatchdogNs int64
	// Runner executes the grids (nil: runner.New()); every grid cell is
	// simulated, since the compiled table is the only cache of computed
	// cells. Progress reports (done, total) measured cells over the whole
	// compilation.
	Runner   *runner.Engine
	Progress func(done, total int)
	// PruneTopK, when positive, lets the analytical model tier pre-rank
	// every cell's candidate set and simulates only the top K algorithms
	// (model-guided grid pruning; see expt.SelectSpec.PruneTopK). 0 runs
	// the full dense sweep. The value is recorded in the artifact's
	// provenance: a pruned table's cells are reproduced by live selections
	// carrying the same PruneTopK.
	PruneTopK int
	// CreatedUnix is the build timestamp recorded in the artifact (Unix
	// seconds). It is injected by the caller — cmd/compilestore stamps the
	// wall clock at the edge — so that Compile itself is a pure function of
	// its inputs: two compiles of the same config produce byte-identical
	// artifacts. Zero leaves the artifact unstamped.
	CreatedUnix int64
}

// DefaultSizes returns the default compile ladder: decade steps over the
// paper's 8 B .. 1 MiB message range.
func DefaultSizes() []int {
	return []int{8, 64, 1024, 16 * 1024, 256 * 1024, 1024 * 1024}
}

func (cfg *CompileConfig) fill() error {
	if cfg.Platform == nil {
		return fmt.Errorf("store: nil platform")
	}
	if len(cfg.Collectives) == 0 {
		cfg.Collectives = []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall}
	}
	if len(cfg.ProcsList) == 0 {
		cfg.ProcsList = []int{cfg.Platform.Size()}
	}
	for _, p := range cfg.ProcsList {
		if p <= 0 || p > cfg.Platform.Size() {
			return fmt.Errorf("store: procs %d out of range for %s (max %d)", p, cfg.Platform.Name, cfg.Platform.Size())
		}
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultSizes()
	}
	for _, s := range cfg.Sizes {
		if s <= 0 {
			return fmt.Errorf("store: message size %d must be positive", s)
		}
	}
	return nil
}

// RankedCell builds the cell of one ranking: the winner, the runner-up
// and the margin between them, plus the conventional (no-delay) choice.
// Every producer of cells — compiled or live selections and the
// analytical model tier — goes through it, so their answers are
// structurally identical.
func RankedCell(msgBytes int, ranking []core.Choice, conventional coll.Algorithm) Cell {
	c := Cell{
		MsgBytes:     msgBytes,
		Winner:       Ref(ranking[0].Algorithm),
		Score:        ranking[0].Score,
		Conventional: Ref(conventional),
	}
	if len(ranking) > 1 {
		c.RunnerUp = Ref(ranking[1].Algorithm)
		if ranking[0].Score > 0 {
			c.Margin = ranking[1].Score/ranking[0].Score - 1
		}
	}
	return c
}

// CellFromOutcome freezes one selection outcome into a table cell. The
// serving layer uses the same constructor for cold (live-computed) cells,
// so a served fallback answer is structurally identical to what an artifact
// compiled for that grid point would contain.
func CellFromOutcome(msgBytes int, out *expt.SelectOutcome) Cell {
	c := RankedCell(msgBytes, out.Ranking, out.Conventional)
	c.Degraded = out.Degraded
	for _, al := range out.Excluded {
		c.Excluded = append(c.Excluded, al.Name)
	}
	return c
}

// Spec returns the selection spec of one grid point under this
// compilation's provenance — the exact input a live selection must use to
// reproduce the cell.
func (cfg *CompileConfig) Spec(c coll.Collective, procs, msgBytes int) expt.SelectSpec {
	return expt.SelectSpec{
		Platform:   cfg.Platform,
		Collective: c,
		MsgBytes:   msgBytes,
		Procs:      procs,
		Factor:     cfg.Factor,
		Reps:       cfg.Reps,
		Warmup:     cfg.Warmup,
		Seed:       cfg.Seed,
		Faults:     cfg.Faults,
		WatchdogNs: cfg.WatchdogNs,
		Runner:     cfg.Runner,
		PruneTopK:  cfg.PruneTopK,
	}
}

// SpecOf is Spec against a loaded table's provenance: the live selection
// that reproduces one of its cells bit-identically.
func SpecOf(t *Table, pl *netmodel.Platform, c coll.Collective, procs, msgBytes int) expt.SelectSpec {
	return expt.SelectSpec{
		Platform:   pl,
		Collective: c,
		MsgBytes:   msgBytes,
		Procs:      procs,
		Factor:     t.Factor,
		Reps:       t.Reps,
		Warmup:     t.Warmup,
		Seed:       t.Seed,
		Faults:     t.Faults,
		WatchdogNs: t.WatchdogNs,
		PruneTopK:  t.PruneTopK,
	}
}

// presets memoizes preset resolution and fingerprinting per machine name.
// netmodel.ByName returns a fresh *Platform per call; resolving every live
// selection through a fresh pointer would re-fingerprint the model each
// time and defeat the pointer-keyed memoization downstream (noise speed
// vectors), which is most of a cold selection's constant overhead. Selections never mutate the platform, and the preset namespace
// is fixed at compile time, so the map is naturally bounded.
var presets sync.Map // machine name -> *preset

type preset struct {
	pl *netmodel.Platform
	fp string
}

// Platform resolves t's machine model from the preset registry and refuses
// a model that has drifted from the table's platform fingerprint: cells
// selected on it would be silently wrong for the artifact's provenance.
// The platform is shared by every caller and must not be mutated.
func (t *Table) Platform() (*netmodel.Platform, error) {
	v, ok := presets.Load(t.Machine)
	if !ok {
		pl := netmodel.ByName(t.Machine)
		if pl == nil {
			return nil, fmt.Errorf("store: table machine %q is not a known preset", t.Machine)
		}
		v, _ = presets.LoadOrStore(t.Machine, &preset{pl: pl, fp: pl.Fingerprint()})
	}
	p := v.(*preset)
	if p.fp != t.PlatformFingerprint {
		return nil, fmt.Errorf("store: machine %s drifted from the table's model (%s vs %s); recompile the artifact",
			t.Machine, p.fp, t.PlatformFingerprint)
	}
	return p.pl, nil
}

// Compile measures every (collective, procs, size) grid point and returns
// the finalized decision table. Grid points whose every algorithm failed
// under fault injection are skipped (they stay lookup misses); any other
// error aborts the compilation. The result is a pure function of the
// config: a recompilation with an identical config (including CreatedUnix)
// produces a byte-identical, checksum-stable artifact.
func Compile(ctx context.Context, cfg CompileConfig) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}

	// One selection per grid point; pre-count measured cells for progress.
	// With model pruning only the top K candidates of a cell are simulated.
	shapes := 9 // no_delay + the eight artificial patterns
	perCell := func(c coll.Collective) int {
		n := len(expt.CandidateAlgorithms(c))
		if cfg.PruneTopK > 0 && cfg.PruneTopK < n {
			n = cfg.PruneTopK
		}
		return n
	}
	totalCells := 0
	for _, c := range cfg.Collectives {
		totalCells += perCell(c) * shapes * len(cfg.ProcsList) * len(cfg.Sizes)
	}
	done := 0
	progressFor := func(cells int) func(int, int) {
		if cfg.Progress == nil {
			return nil
		}
		base := done
		done += cells
		return func(d, _ int) { cfg.Progress(base+d, totalCells) }
	}

	t := &Table{
		Machine:             cfg.Platform.Name,
		PlatformFingerprint: cfg.Platform.Fingerprint(),
		Seed:                cfg.Seed,
		Factor:              cfg.Factor,
		Reps:                cfg.Reps,
		Warmup:              cfg.Warmup,
		Faults:              cfg.Faults,
		WatchdogNs:          cfg.WatchdogNs,
		PruneTopK:           cfg.PruneTopK,
	}
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	for _, c := range cfg.Collectives {
		if len(expt.CandidateAlgorithms(c)) == 0 {
			return nil, fmt.Errorf("store: no algorithms registered for %v", c)
		}
		nAlg := perCell(c)
		for _, procs := range cfg.ProcsList {
			sec := Section{Collective: c.String(), Procs: procs}
			for _, size := range sizes {
				spec := cfg.Spec(c, procs, size)
				spec.Progress = progressFor(nAlg * shapes)
				out, err := expt.SelectRobustCtx(ctx, spec)
				if err != nil {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					if cfg.Faults.Enabled || cfg.WatchdogNs > 0 {
						// Every algorithm faulted at this grid point: leave a
						// hole — the serving layer treats it as a miss.
						continue
					}
					return nil, fmt.Errorf("store: %v/%d procs/%d B: %w", c, procs, size, err)
				}
				sec.Cells = append(sec.Cells, CellFromOutcome(size, out))
			}
			if len(sec.Cells) > 0 {
				t.Sections = append(t.Sections, sec)
			}
		}
	}
	if t.Cells() == 0 {
		return nil, fmt.Errorf("store: compilation produced no cells")
	}
	t.CreatedUnix = cfg.CreatedUnix
	if err := t.Finalize(); err != nil {
		return nil, err
	}
	return t, nil
}
