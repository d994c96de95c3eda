package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"

	"collsel/internal/cluster"
	"collsel/internal/coll"
	"collsel/internal/store"
)

// The peer rung sits between the table and the model: a miss whose cell
// is owned by another replica is forwarded there instead of answered and
// refined locally, so across the cluster each uncovered cell is simulated
// (roughly) once instead of once per replica. Peers are strictly an
// optimization — every forward failure, timeout or unhealthy owner falls
// through to the local miss path, which always answers. The inverse direction is /peer/cell: a replica that simulated a
// cell gossips it to the others, who promote it into their serving tables
// so the next query is a plain table hit.

// maxPeerCellBody bounds one /peer/cell request body. A promoted cell is
// a few hundred bytes of JSON; anything near the cap is garbage.
const maxPeerCellBody = 64 << 10

// PeerCellMsg is the /peer/cell payload: one computed cell plus the
// provenance needed to decide whether it is meaningful here. A replica
// only accepts cells compiled for its own machine model — mixed-fleet
// misconfiguration must surface as a 409, not as silently wrong answers.
type PeerCellMsg struct {
	Machine             string     `json:"machine"`
	PlatformFingerprint string     `json:"platform_fingerprint"`
	TableVersion        string     `json:"table_version,omitempty"`
	Collective          string     `json:"collective"`
	Procs               int        `json:"procs"`
	Cell                store.Cell `json:"cell"`
}

// PeerCellResponse is the /peer/cell answer.
type PeerCellResponse struct {
	// Status is "promoted" (the cell entered the serving table) or
	// "ignored" (the table already held an identical cell).
	Status       string `json:"status"`
	TableVersion string `json:"table_version,omitempty"`
}

// validatePeerCell rejects payloads no honest replica would send —
// unknown collectives, non-positive coordinates, non-finite or
// out-of-range scores. The fingerprint check happens separately (409, not
// 400: the payload is well-formed, just for a different machine).
func validatePeerCell(msg PeerCellMsg) (coll.Collective, error) {
	c, ok := coll.CollectiveByName(msg.Collective)
	if !ok {
		return 0, errors.New("unknown collective")
	}
	if msg.Procs <= 0 || msg.Procs > 1<<20 {
		return 0, errors.New("procs out of range")
	}
	if msg.Cell.MsgBytes <= 0 || msg.Cell.MsgBytes > 1<<30 {
		return 0, errors.New("cell msg_bytes out of range")
	}
	if msg.Cell.Winner.Name == "" {
		return 0, errors.New("cell has no winner")
	}
	if _, ok := msg.Cell.Winner.Resolve(c); !ok {
		return 0, errors.New("winner is not a registered algorithm for this collective")
	}
	for _, v := range []float64{msg.Cell.Score, msg.Cell.Margin, msg.Cell.Factor} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, errors.New("cell scores must be finite and non-negative")
		}
	}
	return c, nil
}

// handlePeerCell ingests one gossiped cold result from a peer replica and
// promotes it into the serving table, like every other promotion
// (promote.go). A reload that changes the table's provenance between the
// check below and the promotion drops the cell with a 409, as if the
// check had seen it.
func (s *Server) handlePeerCell(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cluster == nil {
		s.httpError(w, "peer_cell", http.StatusNotFound, "clustering disabled (-peers not set)")
		return
	}
	if r.Method != http.MethodPost {
		s.httpError(w, "peer_cell", http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxPeerCellBody)
	var msg PeerCellMsg
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
		s.metrics.peerCellsRejected.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, "peer_cell", http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxPeerCellBody)
			return
		}
		s.httpError(w, "peer_cell", http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	c, err := validatePeerCell(msg)
	if err != nil {
		s.metrics.peerCellsRejected.Add(1)
		s.httpError(w, "peer_cell", http.StatusBadRequest, "%v", err)
		return
	}
	t := s.handle.Table()
	if t == nil {
		s.httpError(w, "peer_cell", http.StatusServiceUnavailable, "no decision table loaded")
		return
	}
	if msg.Machine != t.Machine || msg.PlatformFingerprint != t.PlatformFingerprint {
		s.metrics.peerCellsRejected.Add(1)
		s.httpError(w, "peer_cell", http.StatusConflict,
			"cell provenance %s/%s does not match this replica's table (%s/%s)",
			msg.Machine, msg.PlatformFingerprint, t.Machine, t.PlatformFingerprint)
		return
	}
	// Identical-cell suppression: after a partition heals, peers re-share
	// cells everyone already has; promote leaves the table (and its
	// version) alone for those.
	switch s.promote(t, c, msg.Procs, msg.Cell) {
	case dropped:
		s.metrics.peerCellsRejected.Add(1)
		s.httpError(w, "peer_cell", http.StatusConflict, "the table's provenance changed during promotion")
	case unchanged:
		s.metrics.peerCellsIgnored.Add(1)
		s.writeJSON(w, "peer_cell", http.StatusOK, PeerCellResponse{Status: "ignored", TableVersion: s.handle.Table().Version})
	default:
		s.metrics.peerCellsAccepted.Add(1)
		s.writeJSON(w, "peer_cell", http.StatusOK, PeerCellResponse{Status: "promoted", TableVersion: s.handle.Table().Version})
	}
}

// shareCold gossips one locally refined cell to the other replicas, so
// their next query for it is a table hit instead of a simulation. Fire
// and forget through the cluster's bounded share queue.
func (s *Server) shareCold(t *store.Table, c coll.Collective, procs int, cell store.Cell) {
	if s.cfg.Cluster == nil {
		return
	}
	b, err := json.Marshal(PeerCellMsg{
		Machine:             t.Machine,
		PlatformFingerprint: t.PlatformFingerprint,
		TableVersion:        t.Version,
		Collective:          c.String(),
		Procs:               procs,
		Cell:                cell,
	})
	if err != nil {
		return
	}
	s.cfg.Cluster.ShareAsync(b)
}

// peerAnswer is the peer rung of the miss path: if the queried cell
// is owned by another replica (and this request was not itself
// forwarded), forward it there — one attempt under the cluster's fixed
// forward deadline — and serve the owner's answer as source "peer".
// Returns false whenever the local miss path should continue: self-owned
// key, unhealthy owner, transport failure or timeout, or an unusable peer
// response. The caller loses nothing by the attempt but latency, and the
// forward deadline bounds that.
func (s *Server) peerAnswer(r *http.Request, t *store.Table, c coll.Collective, req SelectRequest, resp *SelectResponse) bool {
	cl := s.cfg.Cluster
	if cl == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	ck := cluster.CellKey(c.String(), req.Procs, req.MsgBytes, t.Factor)
	res, err := cl.Forward(r.Context(), ck, c.String(), req.Procs, req.MsgBytes)
	if err != nil {
		return false
	}
	var pr SelectResponse
	if err := json.Unmarshal(res.Body, &pr); err != nil || pr.Algorithm.Name == "" {
		return false
	}
	cell := store.Cell{
		MsgBytes:     req.MsgBytes,
		Winner:       pr.Algorithm,
		Score:        pr.Score,
		RunnerUp:     pr.RunnerUp,
		Margin:       pr.Margin,
		Conventional: pr.Conventional,
		Degraded:     pr.Degraded,
		Excluded:     pr.Excluded,
	}
	fillFromCell(resp, cell, "peer", pr.Exact)
	resp.Peer = res.Peer
	resp.AnsweredProcs = pr.AnsweredProcs
	resp.AnsweredMsgBytes = pr.AnsweredMsgBytes
	// The peer computed under its own table; report that provenance.
	if pr.TableVersion != "" {
		resp.TableVersion = pr.TableVersion
	}
	// An exact peer answer is the compiled or refined cell itself: promote
	// it so repeats are table hits instead of forwards. Estimates and
	// nearest cells are never exact, so they stay out of the table.
	if pr.Exact {
		s.promote(t, c, req.Procs, cell)
	}
	s.metrics.countSource("peer")
	return true
}
