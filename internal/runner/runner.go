// Package runner is the parallel grid-execution engine behind the
// measurement matrices: it fans independent micro-benchmark cells out
// across a worker pool and keeps every result bit-identical to a serial
// run. It holds no state between calls: every cell of every Map is
// simulated, and the served decision table is the only cache of computed
// cells.
//
// Determinism is the design constraint. Each cell is an independent
// discrete-event simulation whose outcome is a pure function of its
// microbench.Config, so the engine only has to guarantee that (a) the seed
// of a cell is derived from the cell's grid coordinates — never from
// execution order (CellSeed/NoDelaySeed/PatternSeed) — and (b) results are
// returned in cell order with the first-in-order error winning. Under
// those rules any worker count, including 1, produces the same bytes.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"collsel/internal/microbench"
)

// Cell is one unit of grid work: a fully specified micro-benchmark run.
type Cell struct {
	// Label identifies the cell in progress reports and errors
	// (conventionally "pattern/algorithm").
	Label string
	// Config is the cell's complete simulation input; two cells with
	// identical configs have identical results.
	Config microbench.Config
	// Harmonization, when non-nil, is the grid's recorded rep-0
	// harmonization, replayed instead of simulated; it leaves the result
	// unchanged (see microbench.Run).
	Harmonization *microbench.Harmonization
}

// Progress reports one completed cell of a Map call.
type Progress struct {
	// Done and Total count completed vs. scheduled cells of this call.
	Done, Total int
	// Label is the completed cell's label.
	Label string
	// CacheHit is always false: the engine simulates every cell. It stays
	// only for existing readers (perfbench) and is removed by the next change
	// to the benchmark harness.
	CacheHit bool
}

// CellError reports the failure of one cell. Map returns the failed cell
// with the smallest index, so the reported error is deterministic across
// worker counts.
type CellError struct {
	// Index is the cell's position in the Map input.
	Index int
	// Label is the cell's label.
	Label string
	// Err is the underlying failure.
	Err error
}

func (e *CellError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("runner: cell %d (%s): %v", e.Index, e.Label, e.Err)
	}
	return fmt.Sprintf("runner: cell %d: %v", e.Index, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Engine executes batches of cells on a worker pool.
type Engine struct {
	workers  int
	progress func(Progress)
}

// Option configures an Engine (or one Map call).
type Option func(*Engine)

// WithWorkers bounds the pool at n concurrent simulations; n <= 0 means
// GOMAXPROCS.
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithProgress installs a callback invoked after every completed cell.
// Calls are serialized by the engine; fn must not invoke the engine.
func WithProgress(fn func(Progress)) Option { return func(e *Engine) { e.progress = fn } }

// New creates an engine with GOMAXPROCS workers and no progress callback,
// then applies opts.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Workers returns the effective pool size.
func (e *Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates every cell and returns the results in cell order. The
// output — values, ordering, and which error is reported — is independent
// of the worker count and of goroutine scheduling: each cell's simulation
// is a pure function of its Config, and on failure the error of the
// smallest-index failed cell wins (wrapped in *CellError). A cancelled
// context stops unstarted cells and returns the context's error.
//
// Per-call opts override the engine's configuration for this call only.
func (e *Engine) Map(ctx context.Context, cells []Cell, opts ...Option) ([]microbench.Result, error) {
	results, cellErrs, err := e.MapAll(ctx, cells, opts...)
	if err != nil {
		return nil, err
	}
	if len(cellErrs) > 0 {
		return nil, cellErrs[0]
	}
	return results, nil
}

// MapAll evaluates every cell like Map but keeps going past failures:
// instead of aborting on the first failed cell it records each failure as a
// *CellError (ascending by index) and returns the successful results with
// zero-value Results at the failed indices. The non-nil error return is
// reserved for context cancellation; everything else is reported per cell.
// Like Map, the output is independent of worker count.
func (e *Engine) MapAll(ctx context.Context, cells []Cell, opts ...Option) ([]microbench.Result, []*CellError, error) {
	run := *e
	for _, o := range opts {
		o(&run)
	}
	n := len(cells)
	results := make([]microbench.Result, n)
	if n == 0 {
		return results, nil, ctx.Err()
	}
	errs := make([]error, n)
	workers := run.Workers()
	if workers > n {
		workers = n
	}

	var progressMu sync.Mutex
	done := 0
	report := func(i int) {
		if run.progress == nil {
			return
		}
		progressMu.Lock()
		done++
		run.progress(Progress{Done: done, Total: n, Label: cells[i].Label})
		progressMu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				// The simulation polls ctx.Done() cooperatively, so a
				// canceled Map stops burning CPU on doomed cells.
				cfg := cells[i].Config
				cfg.Cancel = ctx.Done()
				results[i], errs[i] = microbench.Run(cfg, cells[i].Harmonization)
				if errs[i] == nil {
					report(i)
				}
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var cellErrs []*CellError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Prefer the context's own error: a cell aborted by cooperative
			// cancellation reports sim.ErrCanceled (wrapping context.Canceled)
			// even when the cause was a deadline expiring.
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, cerr
			}
			return nil, nil, err
		}
		cellErrs = append(cellErrs, &CellError{Index: i, Label: cells[i].Label, Err: err})
	}
	return results, cellErrs, nil
}

// --- Seed derivation ---------------------------------------------------------

// The grid seed scheme reproduces the historical serial implementation of
// expt.BuildMatrix exactly, so matrices stay bit-identical to previously
// published runs: seeds are a function of the cell's (row, column) grid
// coordinates, never of execution order.

// NoDelaySeed returns the simulation seed of a row-0 (no-delay) cell: the
// grid's base seed itself, for every algorithm.
func NoDelaySeed(base int64) int64 { return base }

// CellSeed returns the simulation seed of a pattern-row cell from the
// grid's base seed and the cell's coordinates (row >= 1 is the pattern
// row index including the no-delay row 0; col is the algorithm index).
func CellSeed(base int64, row, col int) int64 { return base + int64(row*100+col) }

// PatternSeed returns the seed used to materialize the arrival pattern of
// shape row shapeIdx (0-based over the grid's Shapes).
func PatternSeed(base int64, shapeIdx int) int64 { return base + int64(shapeIdx) }
