// Package serve is the online half of the offline-compile/online-serve
// split: an HTTP/JSON service answering "which collective algorithm should
// this call use?" from a compiled decision table (internal/store).
//
// The hot path is a lock-free table lookup — an atomic snapshot read plus
// two binary searches — so a loaded server answers in sub-microsecond time
// and /reload can hot-swap the table underneath live traffic without a
// failed or torn response. A query the table does not cover takes one
// miss path and is answered at once: by the owning peer replica
// (peer.go), else by the analytical model (model.go), else by the nearest
// compiled cell; only a collective the table holds no cell for is a 404.
// No request waits on a simulation. The live selection runs only as the
// background refinement behind a model answer, behind one refinement gate
// that coalesces per cell, bounds the refinements in flight, remembers
// failures and holds the worker slots; it gates the work, never the
// answer. Every refined cell is promoted into the table (promote.go), the
// only cache of computed cells.
package serve

import (
	"context"
	"encoding/json"
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

// SelectFunc computes a cell for a background refinement: the
// provenance-matched live selection for a grid point the table does not
// cover.
type SelectFunc func(ctx context.Context, t *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, error)

// Fallback is the default refinement selection: it resolves the table's
// machine model from the preset registry, refuses to compute if the model
// has drifted from the table's platform fingerprint (the answers would be
// silently wrong for the artifact's provenance), and otherwise runs the
// same selection the compiler ran — bit-identical to a compiled cell.
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
	// Cold is the live selection a background refinement runs for a cell
	// the model answered (default: Fallback). ColdDisabled turns simulation
	// off: misses are still answered by the model or the nearest cell, and
	// nothing is refined.
	Cold         SelectFunc
	ColdDisabled bool
	// ColdWorkers bounds concurrent refinements (default 2): each one is a
	// full simulation grid, so an unbounded pool would let a burst of
	// distinct misses saturate the process.
	ColdWorkers int
	// ColdQueue bounds how many refinements may wait for a worker slot
	// beyond the ColdWorkers already computing; an excess refinement is
	// shed (dropped and counted — its query already has an answer, and a
	// later miss retriggers it). Default 8; negative means no waiting at
	// all (shed the moment every worker is busy). A cell whose refinement
	// failed is refined refineRetries more times, then no more.
	ColdQueue int
	// SelectTimeout bounds one refinement's live selection, from the
	// moment it holds a worker slot (not its wait for one), and one peer
	// forward. The deadline is plumbed as a context all the way into the
	// simulation workers, which poll it cooperatively — a timed-out
	// selection stops burning CPU. 0 disables deadlines.
	SelectTimeout time.Duration
	// ObserveRetryAfter is the Retry-After hint stamped on /observe 429
	// responses (default 1s). Observation producers batch and tolerate long
	// delays, so operators typically set it to their batching period.
	ObserveRetryAfter time.Duration
	// ModelTier is ignored: the model rung is always on.
	//
	// Deprecated: it remains only because the perfbench module sets it, and
	// goes with the next change to perfbench.
	ModelTier bool
	// Feedback, when non-nil, enables the /observe endpoint and the
	// closed-loop autotuner behind it; nil serves 404 on /observe. The
	// pipeline's lifecycle (Start/Close) belongs to the caller.
	Feedback *feedback.Pipeline
	// Cluster, when non-nil, enables the replication layer: the peer rung
	// of the miss path (misses owned by another replica are forwarded
	// there, hedged and budgeted), the /peer/cell gossip
	// endpoint, and cluster state in /healthz and /metrics. The cluster's
	// lifecycle (Start/Close) belongs to the caller.
	Cluster *cluster.Cluster
	// RetryJitterSeed seeds the deterministic jitter applied to every
	// Retry-After hint, spreading shed clients' re-offers over [base,
	// 2*base] instead of synchronizing them into a retry wave. Default 1;
	// replicas should derive distinct seeds (collseld hashes -self).
	RetryJitterSeed int64
	// Logf, when non-nil, receives one line per reload and refinement.
	Logf func(format string, args ...any)
}

// Server implements the HTTP service; obtain its routes with Handler.
type Server struct {
	cfg      Config
	handle   *store.Handle
	metrics  *metrics
	feedback *feedback.Pipeline
	// gate decides which refinements run (promote.go); drain is the
	// SIGTERM latch.
	gate  *refineGate
	drain drainFlag
	// jitter spreads /observe Retry-After hints so shed producers don't
	// re-offer in lockstep.
	jitter *retryJitter
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
	if cfg.ObserveRetryAfter <= 0 {
		cfg.ObserveRetryAfter = time.Second
	}
	if cfg.RetryJitterSeed == 0 {
		cfg.RetryJitterSeed = 1
	}
	s := &Server{
		cfg:      cfg,
		handle:   cfg.Handle,
		metrics:  newMetrics(),
		feedback: cfg.Feedback,
		gate:     newRefineGate(cfg.ColdWorkers, cfg.ColdQueue),
		jitter:   newRetryJitter(cfg.RetryJitterSeed),
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
	// to the owning replica), "model" (the analytical model's estimate,
	// refined in the background) or "nearest" (the closest compiled cell,
	// when the model cannot answer). Exact is false when the answer came
	// from a bin, an estimate or a nearby cell rather than the exact
	// compiled size.
	Source string `json:"source"`
	Exact  bool   `json:"exact"`
	// AnsweredProcs and AnsweredMsgBytes are set only on nearest answers
	// (also when a peer relays one): the grid point that actually answered.
	AnsweredProcs    int `json:"answered_procs,omitempty"`
	AnsweredMsgBytes int `json:"answered_msg_bytes,omitempty"`
	// TableVersion is the version of the table that answered (also set for
	// model answers: they are estimated under that table's provenance).
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
	// One snapshot per request: every answer — table hit or miss — is
	// consistent with exactly one table version, even across a /reload.
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

	// The miss path: the owning peer, else the model (whose answer a
	// background simulation refines into the table), else the nearest
	// compiled cell. Each rung answers at once; none waits on a simulation.
	if !s.peerAnswer(r, t, c, req, &resp) {
		if cell, ok := s.modelAnswer(t, c, req.Procs, req.MsgBytes); ok {
			s.metrics.countSource("model")
			fillFromCell(&resp, cell, "model", false)
			s.refineAsync(t, c, req.Procs, req.MsgBytes)
		} else if lk, ok := t.Nearest(c, req.Procs, req.MsgBytes); ok {
			s.metrics.countSource("nearest")
			fillFromCell(&resp, lk.Cell, "nearest", false)
			resp.AnsweredProcs = lk.Procs
			resp.AnsweredMsgBytes = lk.MsgBytes
		} else {
			s.httpError(w, "select", http.StatusNotFound, "table %s holds no %s cell to answer from", t.Version, c)
			return
		}
	}
	s.metrics.latency.observe(time.Since(start).Seconds())
	s.writeJSON(w, "select", http.StatusOK, resp)
}

// observeRetryAfter stamps the /observe Retry-After hint, jittered over
// [base, 2*base] so shed producers spread their re-offers.
func (s *Server) observeRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.jitter.hint(s.cfg.ObserveRetryAfter)))
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
// machine: "healthy", "draining" (SIGTERM received) or "no table".
type HealthResponse struct {
	Status        string    `json:"status"`
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
	resp := HealthResponse{
		Status:        state,
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
	//collsel:status code comes from healthState, which returns only 200 (healthy) or 503 (draining/no table) — both in the healthz contract
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
	}, s.gate.waiting.Load())
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
