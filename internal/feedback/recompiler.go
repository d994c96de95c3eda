package feedback

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"collsel/internal/store"
)

// ErrBusy is returned by Offer when the bounded ingest buffer is full: the
// caller (the /observe handler) sheds the batch with 429 + Retry-After
// rather than blocking a request goroutine — ingestion must never be able
// to back-pressure its way into the serving process's memory.
var ErrBusy = errors.New("feedback: ingest buffer full")

// ErrClosed is returned by Offer after Close.
var ErrClosed = errors.New("feedback: pipeline closed")

// errStaleBase reports that the recompiled cells no longer apply to the
// serving table; they are dropped and the planner re-runs.
var errStaleBase = errors.New("feedback: base table replaced during recompilation")

// CompileFunc produces the recompiled table for a patch plan; injectable
// so the chaos harness can fail, hang or instrument recompilations.
type CompileFunc func(ctx context.Context, base *store.Table, patches []store.CellPatch, digest string) (*store.Table, error)

// ValidateFunc is the pre-publish check; injectable for the same reason.
type ValidateFunc func(t *store.Table, patches []store.CellPatch) error

// Backoff-state gauge values, exported through Stats.
const (
	BackoffIdle    = 0 // recompiler waiting for drift
	BackoffWaiting = 1 // last attempt failed, capped-exponential retry pending
	BackoffParked  = 2 // circuit breaker open: repeated failures, recompilation parked
)

// Config parameterizes a Pipeline.
type Config struct {
	// WALDir is the observation log directory; required.
	WALDir string
	// SegmentLimit is the WAL rotation size (0: DefaultSegmentLimit).
	SegmentLimit int64
	// Buffer bounds the queue of accepted-but-not-yet-ingested observation
	// batches; Offer sheds beyond it (default 64).
	Buffer int
	// Plan holds the drift threshold and minimum observation count.
	Plan PlanConfig
	// BackoffBase and BackoffMax shape the retry ladder after a failed
	// recompilation: base*2^(n-1) with deterministic seed-derived jitter,
	// capped at max (defaults 500ms / 1m).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxFailures consecutive failures park the recompiler (circuit
	// breaker): serving continues on the old table, and only a changed
	// profile digest — new evidence — un-parks it (default 5).
	MaxFailures int
	// RecompileTimeout bounds one recompilation attempt; it is plumbed as a
	// context deadline into the simulation workers, which poll it
	// cooperatively (0: no deadline).
	RecompileTimeout time.Duration
	// Handle is the serving hot-swap slot promotions go through; required.
	Handle *store.Handle
	// ArtifactPath is where the promoted artifact is written (atomic
	// temp+rename); default WALDir/autotuned.json.
	ArtifactPath string
	// Compile and Validate default to the real store.RecompileCells path
	// and the patched-cell integrity check; tests inject failures here.
	Compile  CompileFunc
	Validate ValidateFunc
	// Logf, when non-nil, receives one line per ingest error, attempt,
	// promotion and park.
	Logf func(format string, args ...any)

	// sleep is the backoff timer seam (tests: instant, recording).
	sleep func(ctx context.Context, d time.Duration) bool
}

// Pipeline is the crash-safe closed loop: Offer → bounded buffer → WAL →
// aggregator → (drift) → background recompiler → validated, verified
// promotion through store.Handle.Update. One ingest goroutine and one
// recompiler goroutine; the serving hot path never takes any of its locks.
type Pipeline struct {
	cfg    Config
	wal    *WAL
	agg    *Aggregator
	handle *store.Handle

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	buf    chan []Record
	kickCh chan struct{}

	offerMu sync.Mutex // Offer vs Close's cancel: no batch enters buf after the drain

	pending         atomic.Int64 // offered batches not yet folded
	drained         atomic.Int64 // batches Close wrote to the WAL unfolded
	batchesIngested atomic.Int64
	recordsIngested atomic.Int64
	walErrors       atomic.Int64

	attempts     atomic.Int64
	successes    atomic.Int64
	failures     atomic.Int64
	swapsLost    atomic.Int64
	swapGen      atomic.Int64
	backoffState atomic.Int64

	parkMu       sync.Mutex
	parkedDigest string
}

// Stats is the pipeline's metrics snapshot.
type Stats struct {
	WAL             WALStats
	Profiles        int
	PendingBatches  int64
	Drained         int64 // batches Close appended to the WAL unfolded
	BatchesIngested int64
	RecordsIngested int64
	WALErrors       int64

	RecompileAttempts  int64
	RecompileSuccesses int64
	RecompileFailures  int64
	SwapsLost          int64
	// SwapGeneration counts promotions by this pipeline.
	SwapGeneration int64
	// BackoffState is BackoffIdle, BackoffWaiting or BackoffParked.
	BackoffState int64
}

// New opens (and recovers) the WAL, replays it into a fresh aggregator and
// returns a pipeline ready to Start. Recovery is where crash-safety pays
// off: a restarted daemon resumes with exactly the observations that
// reached the log, torn tail excluded.
func New(cfg Config) (*Pipeline, error) {
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("feedback: no WAL directory")
	}
	if cfg.Handle == nil {
		return nil, fmt.Errorf("feedback: nil store handle")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Minute
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 5
	}
	if cfg.ArtifactPath == "" {
		cfg.ArtifactPath = filepath.Join(cfg.WALDir, "autotuned.json")
	}
	if cfg.Compile == nil {
		cfg.Compile = func(ctx context.Context, base *store.Table, patches []store.CellPatch, digest string) (*store.Table, error) {
			return store.RecompileCells(ctx, base, patches, store.RecompileConfig{ProfileDigest: digest})
		}
	}
	if cfg.Validate == nil {
		cfg.Validate = validatePatched
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	agg := NewAggregator()
	wal, err := OpenWAL(cfg.WALDir, cfg.SegmentLimit, agg.FoldOne)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Pipeline{
		cfg:    cfg,
		wal:    wal,
		agg:    agg,
		handle: cfg.Handle,
		ctx:    ctx,
		cancel: cancel,
		buf:    make(chan []Record, cfg.Buffer),
		kickCh: make(chan struct{}, 1),
	}, nil
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Start launches the ingest and recompiler goroutines. If the recovered
// WAL already holds enough drift, the first recompilation begins
// immediately.
func (p *Pipeline) Start() {
	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		p.ingestLoop()
	}()
	go func() {
		defer p.wg.Done()
		p.recompileLoop()
	}()
	p.Kick() // recovered observations may already warrant a recompile
}

// Offer hands a validated batch to the pipeline without blocking: it
// either enqueues (the ingest goroutine will WAL it and fold it) or
// refuses with ErrBusy for the handler to translate into 429 +
// Retry-After. The /select hot path shares nothing with this code.
func (p *Pipeline) Offer(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	p.offerMu.Lock()
	defer p.offerMu.Unlock()
	if p.ctx.Err() != nil {
		return ErrClosed
	}
	p.pending.Add(1)
	select {
	case p.buf <- recs:
		return nil
	default:
		p.pending.Add(-1)
		return ErrBusy
	}
}

// Quiesce blocks until every offered batch has been ingested (WAL +
// aggregate) or ctx expires. Test and benchmark plumbing; the serving path
// never waits on ingestion.
func (p *Pipeline) Quiesce(ctx context.Context) error {
	for p.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.ctx.Done():
			return ErrClosed
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Close refuses further offers, stops both goroutines, waits for them and
// closes the WAL. Batches still in the buffer are drained to the WAL first
// — accepted means durable, short of a crash.
func (p *Pipeline) Close() error {
	p.offerMu.Lock()
	p.cancel()
	p.offerMu.Unlock()
	p.wg.Wait()
	// Drain accepted batches to the log before closing it.
	for {
		select {
		case recs := <-p.buf:
			if err := p.wal.Append(recs); err != nil {
				p.walErrors.Add(1)
			}
			p.drained.Add(1)
			p.pending.Add(-1)
			continue
		default:
		}
		break
	}
	return p.wal.Close()
}

// Stats snapshots the pipeline for /metrics.
func (p *Pipeline) Stats() Stats {
	return Stats{
		WAL:                p.wal.Stats(),
		Profiles:           p.agg.Len(),
		PendingBatches:     p.pending.Load(),
		Drained:            p.drained.Load(),
		BatchesIngested:    p.batchesIngested.Load(),
		RecordsIngested:    p.recordsIngested.Load(),
		WALErrors:          p.walErrors.Load(),
		RecompileAttempts:  p.attempts.Load(),
		RecompileSuccesses: p.successes.Load(),
		RecompileFailures:  p.failures.Load(),
		SwapsLost:          p.swapsLost.Load(),
		SwapGeneration:     p.swapGen.Load(),
		BackoffState:       p.backoffState.Load(),
	}
}

// Kick nudges the recompiler, without blocking, to re-plan against the
// served table. The ingest loop kicks on every batch, and the /reload
// path kicks so that a reinstalled un-tuned artifact gets the accumulated
// empirical profile re-applied without waiting for new observations.
func (p *Pipeline) Kick() {
	select {
	case p.kickCh <- struct{}{}:
	default:
	}
}

func (p *Pipeline) ingestLoop() {
	for {
		select {
		case <-p.ctx.Done():
			return
		case recs := <-p.buf:
			// WAL first, then fold: an observation influences a recompile
			// only once it would also survive a crash. A WAL write error is
			// counted and logged but does not drop the in-memory fold —
			// serving robustness outranks replay fidelity on a dying disk.
			if err := p.wal.Append(recs); err != nil {
				p.walErrors.Add(1)
				p.logf("feedback: WAL append failed (aggregate continues in memory): %v", err)
			}
			p.agg.Fold(recs)
			p.batchesIngested.Add(1)
			p.recordsIngested.Add(int64(len(recs)))
			p.pending.Add(-1)
			p.Kick()
		}
	}
}

// recompileLoop is the single background worker. Per kick it drains all
// pending drift: plan against the *current* table, recompile, promote,
// re-plan — a converged plan (no patches) ends the drain, because every
// promoted cell now carries its empirical factor. Failures walk the
// capped-exponential backoff ladder; MaxFailures consecutive ones park the
// loop until the profile digest changes (new evidence).
func (p *Pipeline) recompileLoop() {
	consecutive := 0
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.kickCh:
		}
		for p.ctx.Err() == nil {
			base := p.handle.Table()
			if base == nil {
				break
			}
			patches, digest := p.agg.Plan(base, p.cfg.Plan)
			if len(patches) == 0 {
				break
			}
			if p.parked(digest) {
				break
			}
			err := p.attempt(base, patches, digest)
			switch {
			case err == nil:
				consecutive = 0
				p.backoffState.Store(BackoffIdle)
				continue // re-plan: promotion may expose further drift
			case errors.Is(err, errStaleBase):
				// Not a failure: the operator won the swap race; plan again
				// against whatever is serving now.
				continue
			}
			consecutive++
			p.failures.Add(1)
			p.logf("feedback: recompilation failed (%d consecutive): %v", consecutive, err)
			if p.ctx.Err() != nil {
				return
			}
			if consecutive >= p.cfg.MaxFailures {
				p.park(digest)
				consecutive = 0
				break
			}
			p.backoffState.Store(BackoffWaiting)
			if !p.cfg.sleep(p.ctx, p.backoffFor(consecutive, digest)) {
				return
			}
		}
		if p.backoffState.Load() == BackoffWaiting {
			p.backoffState.Store(BackoffIdle)
		}
	}
}

// backoffFor returns base*2^(n-1) capped at max, plus up to +25%
// deterministic jitter derived from (digest, n) — jitter without ambient
// randomness, so a replayed failure sequence waits identically.
func (p *Pipeline) backoffFor(n int, digest string) time.Duration {
	d := p.cfg.BackoffBase
	for i := 1; i < n && d < p.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", digest, n)
	frac := float64(h.Sum64()%1024) / 1024
	return d + time.Duration(float64(d)*0.25*frac)
}

func (p *Pipeline) parked(digest string) bool {
	p.parkMu.Lock()
	defer p.parkMu.Unlock()
	if p.parkedDigest == "" {
		return false
	}
	if p.parkedDigest != digest {
		// New evidence arrived since the park: un-park and try again.
		p.parkedDigest = ""
		p.backoffState.Store(BackoffIdle)
		return false
	}
	return true
}

func (p *Pipeline) park(digest string) {
	p.parkMu.Lock()
	p.parkedDigest = digest
	p.parkMu.Unlock()
	p.backoffState.Store(BackoffParked)
	p.logf("feedback: recompiler parked after %d consecutive failures (profile %s); serving continues on the current table",
		p.cfg.MaxFailures, digest)
}

// attempt recompiles patches against base (deadline-bounded), then, inside
// Handle.Update, installs the recompiled cells into the current table,
// validates the candidate, saves it (atomic temp+rename), loads it back
// through the checksum and fingerprint guards /reload applies, and
// publishes the verified table — what serves is exactly what is on disk.
// A candidate that fails any step is never published.
func (p *Pipeline) attempt(base *store.Table, patches []store.CellPatch, digest string) error {
	p.attempts.Add(1)
	ctx := p.ctx
	if p.cfg.RecompileTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.RecompileTimeout)
		defer cancel()
	}
	nt, err := p.cfg.Compile(ctx, base, patches, digest)
	if err != nil {
		return err
	}
	if nt == nil {
		return fmt.Errorf("feedback: compile returned no table")
	}
	published, err := p.handle.Update(func(cur *store.Table) (*store.Table, error) {
		cand, err := installRecompiled(cur, base, nt, patches)
		if err != nil {
			return nil, err
		}
		if err := p.cfg.Validate(cand, patches); err != nil {
			return nil, fmt.Errorf("feedback: validation: %w", err)
		}
		if err := cand.Save(p.cfg.ArtifactPath); err != nil {
			return nil, fmt.Errorf("feedback: persisting artifact: %w", err)
		}
		verified, err := store.Load(p.cfg.ArtifactPath)
		if err != nil {
			return nil, fmt.Errorf("feedback: verifying artifact: %w", err)
		}
		if verified.PlatformFingerprint != base.PlatformFingerprint {
			return nil, fmt.Errorf("feedback: artifact fingerprint %s drifted from base %s",
				verified.PlatformFingerprint, base.PlatformFingerprint)
		}
		return verified, nil
	})
	if errors.Is(err, errStaleBase) {
		p.swapsLost.Add(1)
		p.logf("feedback: recompile of table %s is stale, re-planning", base.Version)
	}
	if err != nil {
		return err
	}
	p.swapGen.Add(1)
	p.successes.Add(1)
	p.logf("feedback: promoted table %s (%d cells recompiled, profile %s, base %s)",
		published.Version, len(patches), digest, base.Version)
	return nil
}

// installRecompiled returns cur with nt's patched cells and profile
// digest. A recompile applies to cur only if cur has base's provenance and
// base's patched cells; cells cur gained since base are kept.
func installRecompiled(cur, base, nt *store.Table, patches []store.CellPatch) (*store.Table, error) {
	if store.ProvenanceKey(cur) != store.ProvenanceKey(base) {
		return nil, errStaleBase
	}
	cand := cur
	for _, pa := range patches {
		was, _ := base.Get(pa.Collective, pa.Procs, pa.MsgBytes)
		if now, _ := cur.Get(pa.Collective, pa.Procs, pa.MsgBytes); !reflect.DeepEqual(now, was) {
			return nil, errStaleBase
		}
		lk, _ := nt.Get(pa.Collective, pa.Procs, pa.MsgBytes)
		var err error
		if cand, err = store.WithCell(cand, pa.Collective, pa.Procs, lk.Cell); err != nil {
			return nil, err
		}
	}
	cand.ProfileDigest = nt.ProfileDigest // cand is a fresh copy: patches is never empty
	return cand, cand.Finalize()
}

// validatePatched is the default pre-publish check: every patched cell must
// answer an exact lookup, carry its empirical factor, and name an
// algorithm the live registry can resolve — the properties /select relies
// on.
func validatePatched(t *store.Table, patches []store.CellPatch) error {
	for _, pa := range patches {
		lk, ok := t.Get(pa.Collective, pa.Procs, pa.MsgBytes)
		if !ok || !lk.Exact {
			return fmt.Errorf("patched cell %v/%d/%d not servable", pa.Collective, pa.Procs, pa.MsgBytes)
		}
		if lk.Cell.Factor != pa.Factor {
			return fmt.Errorf("patched cell %v/%d/%d carries factor %g, want %g",
				pa.Collective, pa.Procs, pa.MsgBytes, lk.Cell.Factor, pa.Factor)
		}
		if _, ok := lk.Cell.Winner.Resolve(pa.Collective); !ok {
			return fmt.Errorf("patched cell %v/%d/%d winner %q unresolvable",
				pa.Collective, pa.Procs, pa.MsgBytes, lk.Cell.Winner.Name)
		}
	}
	return nil
}

// sleepCtx waits d or until ctx is done; true means the wait completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
