// Package serve is the online half of the offline-compile/online-serve
// split: an HTTP/JSON service answering "which collective algorithm should
// this call use?" from a compiled decision table (internal/store).
//
// The hot path is a lock-free table lookup — an atomic snapshot read plus
// two binary searches — so a loaded server answers in sub-microsecond time
// and /reload can hot-swap the table underneath live traffic without a
// failed or torn response. Queries the table does not cover fall through to
// a live selection (the full pattern x algorithm simulation grid), guarded
// by singleflight coalescing and a bounded worker pool, so a thundering
// herd on one cold cell costs one simulation. The table is the only cache
// of computed cells: every cell is promoted into it (promote.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"collsel/internal/cluster"
	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/feedback"
	"collsel/internal/store"
)

// SelectFunc computes a cold cell: the provenance-matched live selection
// for a grid point the table does not cover.
type SelectFunc func(ctx context.Context, t *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, error)

// Fallback is the default cold path: it resolves the table's machine model
// from the preset registry, refuses to compute if the model has drifted
// from the table's platform fingerprint (the answers would be silently
// wrong for the artifact's provenance), and otherwise runs the same
// selection the compiler ran — bit-identical to a compiled cell.
func Fallback(ctx context.Context, t *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, error) {
	pl, err := t.Platform()
	if err != nil {
		return store.Cell{}, err
	}
	if procs > pl.Size() {
		return store.Cell{}, fmt.Errorf("serve: %d procs exceed machine %s (%d)", procs, t.Machine, pl.Size())
	}
	out, err := expt.SelectRobustCtx(ctx, store.SpecOf(t, pl, c, procs, msgBytes))
	if err != nil {
		return store.Cell{}, err
	}
	return store.CellFromOutcome(msgBytes, out), nil
}

// Config parameterizes a Server.
type Config struct {
	// Handle is the hot-swap slot the server answers from; required.
	Handle *store.Handle
	// StorePath is the artifact /reload re-reads; empty disables /reload.
	StorePath string
	// Cold is the cold-path selection (default: Fallback). Set ColdDisabled
	// to refuse uncovered queries with 404 instead.
	Cold         SelectFunc
	ColdDisabled bool
	// ColdWorkers bounds concurrent cold selections (default 2): each one
	// is a full simulation grid, so an unbounded pool would let a burst of
	// distinct cold cells saturate the process.
	ColdWorkers int
	// ColdQueue bounds how many cold requests may wait for a worker slot
	// beyond the ColdWorkers already computing; excess load is shed with
	// 429 + Retry-After. Default 8; negative means no waiting at all (shed
	// the moment every worker is busy).
	ColdQueue int
	// SelectTimeout is the per-request deadline for the cold path: it
	// bounds queue wait + live selection, and is plumbed as a context all
	// the way into the simulation workers, which poll it cooperatively — a
	// timed-out selection stops burning CPU. 0 disables deadlines.
	SelectTimeout time.Duration
	// NegativeRetries is the recompute budget of a remembered cold-path
	// failure: the first NegativeRetries repeat requests for a failing cell
	// recompute it; after that the failure is served without touching the
	// worker pool. At most maxNegative failures are remembered. Default 2;
	// negative disables negative caching entirely.
	NegativeRetries int
	// Breaker parameterizes the circuit breaker on the live-selection path;
	// the zero value uses the defaults (5 consecutive failures trip it open
	// for 10s, then one half-open probe).
	Breaker BreakerConfig
	// RetryAfter is the hint stamped on 429/503 responses (default 1s).
	RetryAfter time.Duration
	// ObserveRetryAfter is the Retry-After hint stamped specifically on
	// /observe 429 responses (default: RetryAfter). Observation producers
	// batch and tolerate long delays, so operators typically set this much
	// higher than the /select hint to spread re-offered batches out.
	ObserveRetryAfter time.Duration
	// ModelTier enables the analytical-model middle rung of the answer
	// ladder: uncovered queries are answered instantly from the closed-form
	// cost model (source "model") while a background simulation refines the
	// cell and promotes it into the hot table. Disabled by default — the
	// model must have been validated for the table's machine
	// (cmd/modelcheck) before its estimates are trusted in production.
	ModelTier bool
	// Feedback, when non-nil, enables the /observe endpoint and the
	// closed-loop autotuner behind it; nil serves 404 on /observe. The
	// pipeline's lifecycle (Start/Close) belongs to the caller.
	Feedback *feedback.Pipeline
	// Cluster, when non-nil, enables the replication layer: the peer rung
	// of the answer ladder (cold queries owned by another replica are
	// forwarded there, hedged and budgeted), the /peer/cell gossip
	// endpoint, and cluster state in /healthz and /metrics. The cluster's
	// lifecycle (Start/Close) belongs to the caller.
	Cluster *cluster.Cluster
	// RetryJitterSeed seeds the deterministic jitter applied to every
	// Retry-After hint, spreading shed clients' re-offers over [base,
	// 2*base] instead of synchronizing them into a retry wave. Default 1;
	// replicas should derive distinct seeds (collseld hashes -self).
	RetryJitterSeed int64
	// Logf, when non-nil, receives one line per reload and cold compute.
	Logf func(format string, args ...any)
}

// Server implements the HTTP service; obtain its routes with Handler.
type Server struct {
	cfg      Config
	handle   *store.Handle
	metrics  *metrics
	flights  *flightGroup
	feedback *feedback.Pipeline
	// cold is the cold path's admission controller: worker pool + bounded
	// wait queue; breaker is the circuit breaker in front of it; drain is
	// the SIGTERM latch. Together they form the degradation ladder: table
	// hit → coalesced live selection → nearest-degraded → shed.
	cold    *admission
	breaker *breaker
	drain   drainFlag
	// jitter spreads Retry-After hints so shed clients don't re-offer in
	// lockstep.
	jitter *retryJitter
	// negative remembers cold failures by cell key (promote.go).
	negMu    sync.Mutex
	negative map[string]negEntry
	// refineWG lets WaitBackground join the background refinements.
	refineWG sync.WaitGroup
	started  time.Time
}

// New creates a Server over a handle. The handle may be empty (no table);
// the server then serves 503 until a table is installed or reloaded.
func New(cfg Config) (*Server, error) {
	if cfg.Handle == nil {
		return nil, fmt.Errorf("serve: nil store handle")
	}
	if cfg.Cold == nil {
		cfg.Cold = Fallback
	}
	if cfg.ColdWorkers <= 0 {
		cfg.ColdWorkers = 2
	}
	if cfg.ColdQueue == 0 {
		cfg.ColdQueue = 8
	}
	if cfg.ColdQueue < 0 {
		cfg.ColdQueue = 0 // no waiting: shed when every worker is busy
	}
	if cfg.NegativeRetries == 0 {
		cfg.NegativeRetries = 2
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.ObserveRetryAfter <= 0 {
		cfg.ObserveRetryAfter = cfg.RetryAfter
	}
	if cfg.RetryJitterSeed == 0 {
		cfg.RetryJitterSeed = 1
	}
	s := &Server{
		cfg:      cfg,
		handle:   cfg.Handle,
		metrics:  newMetrics(),
		flights:  newFlightGroup(),
		feedback: cfg.Feedback,
		cold:     newAdmission(cfg.ColdWorkers, int64(cfg.ColdQueue)),
		breaker:  newBreaker(cfg.Breaker, nil),
		jitter:   newRetryJitter(cfg.RetryJitterSeed),
		negative: map[string]negEntry{},
		started:  time.Now(),
	}
	return s, nil
}

// TableSnapshot returns the currently served table (nil when none is
// installed); callers get an immutable snapshot, safe across reloads.
func (s *Server) TableSnapshot() *store.Table { return s.handle.Table() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/select", s.handleSelect)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/observe", s.handleObserve)
	mux.HandleFunc("/peer/cell", s.handlePeerCell)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// SelectRequest is the /select request body (or query parameters).
type SelectRequest struct {
	Collective string `json:"collective"`
	MsgBytes   int    `json:"msg_bytes"`
	Procs      int    `json:"procs"`
}

// SelectResponse is the /select answer.
type SelectResponse struct {
	Collective string        `json:"collective"`
	Procs      int           `json:"procs"`
	MsgBytes   int           `json:"msg_bytes"`
	Algorithm  store.AlgoRef `json:"algorithm"`
	Score      float64       `json:"score"`
	RunnerUp   store.AlgoRef `json:"runner_up,omitempty"`
	Margin     float64       `json:"margin,omitempty"`
	// Conventional is the synchronized-benchmark choice, for comparison.
	Conventional store.AlgoRef `json:"conventional"`
	Degraded     bool          `json:"degraded,omitempty"`
	Excluded     []string      `json:"excluded,omitempty"`
	// Source tells where the answer came from: "table", "peer" (forwarded
	// to the owning replica), "model", "computed" or
	// "nearest-degraded" (circuit breaker open; the answer is
	// the closest covered cell, with AnsweredProcs/AnsweredMsgBytes holding
	// the compiled coordinates it was actually built for). Exact is false
	// when the answer came from a bin or a nearby cell rather than the exact
	// compiled size.
	Source string `json:"source"`
	Exact  bool   `json:"exact"`
	// AnsweredProcs and AnsweredMsgBytes are set only on nearest-degraded
	// answers: the grid point that actually answered.
	AnsweredProcs    int `json:"answered_procs,omitempty"`
	AnsweredMsgBytes int `json:"answered_msg_bytes,omitempty"`
	// TableVersion is the version of the table that answered (also set for
	// cold answers: they are computed under that table's provenance).
	TableVersion string `json:"table_version"`
	// Peer is set on source "peer" answers: the replica that actually
	// answered the forwarded query.
	Peer string `json:"peer,omitempty"`
}

// httpError is a JSON error reply.
func (s *Server) httpError(w http.ResponseWriter, endpoint string, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
	s.metrics.countRequest(endpoint, code)
}

func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
	s.metrics.countRequest(endpoint, code)
}

// parseSelect accepts POST JSON bodies and GET query parameters.
func parseSelect(r *http.Request) (SelectRequest, error) {
	var req SelectRequest
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, fmt.Errorf("bad JSON body: %v", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Collective = q.Get("collective")
		fmt.Sscan(q.Get("msg_bytes"), &req.MsgBytes)
		fmt.Sscan(q.Get("procs"), &req.Procs)
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if req.Collective == "" {
		return req, fmt.Errorf("missing collective")
	}
	if req.MsgBytes <= 0 {
		return req, fmt.Errorf("msg_bytes must be positive")
	}
	if req.Procs <= 0 {
		return req, fmt.Errorf("procs must be positive")
	}
	return req, nil
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := parseSelect(r)
	if err != nil {
		s.httpError(w, "select", http.StatusBadRequest, "%v", err)
		return
	}
	c, ok := coll.CollectiveByName(req.Collective)
	if !ok {
		s.httpError(w, "select", http.StatusBadRequest, "unknown collective %q", req.Collective)
		return
	}
	// One snapshot per request: every answer — table hit or cold compute —
	// is consistent with exactly one table version, even across a /reload.
	t := s.handle.Table()
	if t == nil {
		s.httpError(w, "select", http.StatusServiceUnavailable, "no decision table loaded")
		return
	}

	resp := SelectResponse{
		Collective:   c.String(),
		Procs:        req.Procs,
		MsgBytes:     req.MsgBytes,
		TableVersion: t.Version,
	}
	s.metrics.recordQuery(req.Procs, req.MsgBytes)
	if lk, ok := t.Get(c, req.Procs, req.MsgBytes); ok {
		s.metrics.tableHits.Add(1)
		s.metrics.countSource("table")
		fillFromCell(&resp, lk.Cell, "table", lk.Exact)
		s.metrics.latency.observe(time.Since(start).Seconds())
		s.writeJSON(w, "select", http.StatusOK, resp)
		return
	}
	s.metrics.tableMisses.Add(1)

	key := cellKey(t, c, req.Procs, req.MsgBytes)
	if !s.cfg.ColdDisabled {
		if errMsg, ok := s.negativeHit(key); ok {
			s.metrics.negativeHits.Add(1)
			s.httpError(w, "select", http.StatusInternalServerError,
				"cold selection failed (cached, retry budget exhausted): %s", errMsg)
			return
		}
	}

	// Peer rung: a cold cell owned by another replica is forwarded there
	// (hedged, budgeted) instead of simulated locally. Any failure falls
	// through — the local ladder below can always answer.
	if s.peerAnswer(r, t, c, req, &resp) {
		s.metrics.latency.observe(time.Since(start).Seconds())
		s.writeJSON(w, "select", http.StatusOK, resp)
		return
	}

	// Model tier: answer the miss instantly from the analytical cost model
	// and let a background simulation refine the cell into the table. The
	// response never waits on the worker pool — the whole point of the
	// middle rung is that a cold miss costs microseconds, not seconds.
	if s.cfg.ModelTier {
		if cell, ok := s.modelAnswer(t, c, req.Procs, req.MsgBytes); ok {
			s.metrics.countSource("model")
			fillFromCell(&resp, cell, "model", false)
			if !s.cfg.ColdDisabled {
				s.refineAsync(t, c, req.Procs, req.MsgBytes, key)
			}
			s.metrics.latency.observe(time.Since(start).Seconds())
			s.writeJSON(w, "select", http.StatusOK, resp)
			return
		}
	}

	if s.cfg.ColdDisabled {
		s.httpError(w, "select", http.StatusNotFound, "not covered by table %s (cold path disabled)", t.Version)
		return
	}

	// reqCtx bounds this request's wait on the cold path (queue time plus
	// the leader's selection); the leader itself computes on a detached work
	// context (compute), so a cancelled requester never aborts work that
	// other coalesced waiters — or the table — will still use.
	reqCtx := r.Context()
	if s.cfg.SelectTimeout > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, s.cfg.SelectTimeout)
		defer cancel()
	}

	cell, err, coalesced := s.flights.do(reqCtx, key, func() (store.Cell, error) {
		cell, _, err := s.compute(t, c, req.Procs, req.MsgBytes, key)
		return cell, err
	})
	if coalesced {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.writeSelectError(w, r, t, c, &resp, err)
		return
	}
	s.metrics.countSource("computed")
	fillFromCell(&resp, cell, "computed", true)
	s.metrics.latency.observe(time.Since(start).Seconds())
	s.writeJSON(w, "select", http.StatusOK, resp)
}

// isTransient reports whether a cold-path error says nothing durable about
// the cell itself — shed load, cancellations and deadline hits must not be
// negative-cached, or a transient overload would poison the cell.
func isTransient(err error) bool {
	return errors.Is(err, errShed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// retryAfter stamps the Retry-After hint, jittered over [base, 2*base]
// so shed clients spread their re-offers; call before httpError.
func (s *Server) retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.jitter.hint(s.cfg.RetryAfter)))
}

// observeRetryAfter stamps the /observe-specific Retry-After hint, which
// is configured independently of the /select one: shed observation
// batches should back off on the producers' timescale, not the query
// clients'. Jittered like retryAfter.
func (s *Server) observeRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.jitter.hint(s.cfg.ObserveRetryAfter)))
}

// writeSelectError maps a cold-path failure to the response the degradation
// ladder prescribes: breaker-open requests get the nearest covered cell
// (200, source "nearest-degraded") or 503 when the table has nothing close;
// shed load gets 429 + Retry-After; an abandoned request gets 499 (nginx's
// client-closed-request, kept out of the 5xx error rate); a deadline hit
// gets 503 + Retry-After; only a genuine selection failure is a 500.
func (s *Server) writeSelectError(w http.ResponseWriter, r *http.Request, t *store.Table, c coll.Collective, resp *SelectResponse, err error) {
	switch {
	case errors.Is(err, errBreakerOpen):
		if lk, ok := t.Nearest(c, resp.Procs, resp.MsgBytes); ok {
			s.metrics.degradedAnswers.Add(1)
			s.metrics.countSource("nearest-degraded")
			fillFromCell(resp, lk.Cell, "nearest-degraded", false)
			resp.AnsweredProcs = lk.Procs
			resp.AnsweredMsgBytes = lk.MsgBytes
			s.writeJSON(w, "select", http.StatusOK, *resp)
			return
		}
		s.retryAfter(w)
		s.httpError(w, "select", http.StatusServiceUnavailable,
			"live selection unavailable (circuit breaker open) and no nearby cell to degrade to")
	case errors.Is(err, errShed):
		s.metrics.shed.Add(1)
		s.retryAfter(w)
		s.httpError(w, "select", http.StatusTooManyRequests, "%v", err)
	case r.Context().Err() != nil:
		s.metrics.clientCancels.Add(1)
		s.httpError(w, "select", 499, "client cancelled: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.deadlineExceeded.Add(1)
		s.retryAfter(w)
		s.httpError(w, "select", http.StatusServiceUnavailable, "selection deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		s.httpError(w, "select", http.StatusServiceUnavailable, "selection cancelled: %v", err)
	default:
		s.httpError(w, "select", http.StatusInternalServerError, "cold selection failed: %v", err)
	}
}

func fillFromCell(resp *SelectResponse, cell store.Cell, source string, exact bool) {
	resp.Algorithm = cell.Winner
	resp.Score = cell.Score
	resp.RunnerUp = cell.RunnerUp
	resp.Margin = cell.Margin
	resp.Conventional = cell.Conventional
	resp.Degraded = cell.Degraded
	resp.Excluded = cell.Excluded
	resp.Source = source
	resp.Exact = exact
}

// HealthResponse is the /healthz answer. Status walks the health state
// machine: "healthy", "degraded" (breaker open: every query is still
// answered, some at reduced quality), "draining" (SIGTERM received) or
// "no table".
type HealthResponse struct {
	Status        string    `json:"status"`
	Breaker       string    `json:"breaker"`
	Draining      bool      `json:"draining,omitempty"`
	TableVersion  string    `json:"table_version,omitempty"`
	TableAgeSec   float64   `json:"table_age_seconds,omitempty"`
	TableCells    int       `json:"table_cells,omitempty"`
	Machine       string    `json:"machine,omitempty"`
	Coverage      *Coverage `json:"coverage,omitempty"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// Cluster reports the replication layer's view — peer health, budget,
	// forward/hedge counters — when clustering is enabled.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// Coverage relates the loaded table to the traffic it actually receives:
// how many cells it holds, how often queries land in them, and the range
// of (procs, msg_bytes) coordinates clients have asked about since the
// process started. A low hit rate or a queried range far outside the
// compiled one tells the operator the compile grid no longer matches the
// workload.
type Coverage struct {
	TableCells int   `json:"table_cells"`
	Queries    int64 `json:"queries"`
	TableHits  int64 `json:"table_hits"`
	// HitRate is TableHits/Queries (0 when no queries were seen).
	HitRate float64 `json:"hit_rate"`
	// Queried ranges are omitted until the first /select query arrives.
	QueriedProcsMin    int `json:"queried_procs_min,omitempty"`
	QueriedProcsMax    int `json:"queried_procs_max,omitempty"`
	QueriedMsgBytesMin int `json:"queried_msg_bytes_min,omitempty"`
	QueriedMsgBytesMax int `json:"queried_msg_bytes_max,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, code := s.healthState()
	bst, _ := s.breaker.snapshot()
	resp := HealthResponse{
		Status:        state,
		Breaker:       breakerStateName(bst),
		Draining:      s.Draining(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if t := s.handle.Table(); t != nil {
		resp.TableVersion = t.Version
		resp.TableAgeSec = s.handle.AgeSeconds()
		resp.TableCells = t.Cells()
		resp.Machine = t.Machine
		resp.Coverage = s.metrics.coverage(t.Cells())
	}
	if s.cfg.Cluster != nil {
		st := s.cfg.Cluster.Stats()
		resp.Cluster = &st
	}
	//collsel:status code comes from healthState, which returns only 200 (healthy/degraded) or 503 (draining/no table) — both in the healthz contract
	s.writeJSON(w, "healthz", code, resp)
}

// ReloadResponse is the /reload answer.
type ReloadResponse struct {
	OldVersion string `json:"old_version,omitempty"`
	NewVersion string `json:"new_version"`
	Cells      int    `json:"cells"`
	Swaps      int64  `json:"swaps"`
	// UsedBackup is true when the primary artifact was unusable and the
	// table came from the retained last-known-good copy.
	UsedBackup bool `json:"used_backup,omitempty"`
}

// Reload re-reads and verifies the configured artifact and hot-swaps it
// in, falling back to the retained last-known-good copy when the primary
// is corrupt or missing. Only a double failure leaves the currently
// served table installed.
func (s *Server) Reload() (ReloadResponse, error) {
	if s.cfg.StorePath == "" {
		return ReloadResponse{}, fmt.Errorf("serve: no store path configured")
	}
	t, usedBackup, err := store.LoadWithFallback(s.cfg.StorePath)
	if err != nil {
		return ReloadResponse{}, err
	}
	if usedBackup {
		s.metrics.artifactFallbacks.Add(1)
		s.logf("reload: primary artifact %s unusable, recovered last-known-good %s (table %s)",
			s.cfg.StorePath, store.BackupPath(s.cfg.StorePath), t.Version)
	}
	old := s.handle.Swap(t)
	resp := ReloadResponse{NewVersion: t.Version, Cells: t.Cells(), Swaps: s.handle.Swaps(), UsedBackup: usedBackup}
	if old != nil {
		resp.OldVersion = old.Version
	}
	if s.feedback != nil {
		// The reload may have reinstalled an un-tuned artifact; wake the
		// recompiler so the accumulated empirical profile is re-applied
		// instead of lying dormant until the next observation.
		s.feedback.Kick()
	}
	s.logf("reloaded %s: table %s (%d cells, was %s)", s.cfg.StorePath, resp.NewVersion, resp.Cells, resp.OldVersion)
	return resp, nil
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, "reload", http.StatusMethodNotAllowed, "POST only")
		return
	}
	resp, err := s.Reload()
	if err != nil {
		// The old table keeps serving; a broken artifact must not take the
		// service down.
		s.httpError(w, "reload", http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.writeJSON(w, "reload", http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, func() (string, float64, int, int64) {
		t := s.handle.Table()
		if t == nil {
			return "none", 0, 0, s.handle.Swaps()
		}
		return t.Version, s.handle.AgeSeconds(), t.Cells(), s.handle.Swaps()
	}, func() (int, int64, int64) {
		st, opens := s.breaker.snapshot()
		return st, opens, s.cold.depth()
	})
	if s.feedback != nil {
		renderFeedback(&b, s.metrics, s.feedback.Stats())
	}
	if s.cfg.Cluster != nil {
		renderCluster(&b, s.metrics, s.cfg.Cluster.Stats())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//collsel:status the exposition is plain text, not JSON, so writeJSON does not apply; the scrape is metered by the explicit countRequest below
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
	s.metrics.countRequest("metrics", http.StatusOK)
}
