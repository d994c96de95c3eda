package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"

	"collsel/internal/coll"
	"collsel/internal/feedback"
)

// maxObserveBatch bounds one /observe request; larger batches are a
// client bug, not load, and are rejected outright.
const maxObserveBatch = 4096

// maxImbalance bounds a plausible imbalance factor; values beyond it are
// garbage that must not reach the skew profiles.
const maxImbalance = 1000.0

// Observation is one reported arrival-pattern measurement: for Count
// calls of Collective at (Procs, MsgBytes), the processes' arrival spread
// was Imbalance times the mean collective runtime (the paper's imbalance
// factor), or SpreadNs nanoseconds in absolute terms.
type Observation struct {
	Collective string  `json:"collective"`
	Procs      int     `json:"procs"`
	MsgBytes   int     `json:"msg_bytes"`
	Imbalance  float64 `json:"imbalance"`
	SpreadNs   int64   `json:"spread_ns,omitempty"`
	Count      int64   `json:"count,omitempty"`
}

// ObserveRequest is the /observe request body.
type ObserveRequest struct {
	Observations []Observation `json:"observations"`
}

// ObserveResponse is the 202 answer: how many records were accepted into
// the ingest pipeline (durable once the ingest goroutine WALs them).
type ObserveResponse struct {
	Accepted int `json:"accepted"`
}

// validateObservation converts one observation into its quantized WAL
// record, or explains why it is malformed.
func validateObservation(o Observation) (feedback.Record, error) {
	if _, ok := coll.CollectiveByName(o.Collective); !ok {
		return feedback.Record{}, fmt.Errorf("unknown collective %q", o.Collective)
	}
	if o.Procs <= 0 {
		return feedback.Record{}, fmt.Errorf("procs must be positive")
	}
	if o.MsgBytes <= 0 {
		return feedback.Record{}, fmt.Errorf("msg_bytes must be positive")
	}
	if math.IsNaN(o.Imbalance) || math.IsInf(o.Imbalance, 0) || o.Imbalance < 0 || o.Imbalance > maxImbalance {
		return feedback.Record{}, fmt.Errorf("imbalance %g outside [0, %g]", o.Imbalance, maxImbalance)
	}
	if o.SpreadNs < 0 {
		return feedback.Record{}, fmt.Errorf("spread_ns must be non-negative")
	}
	if o.Count < 0 {
		return feedback.Record{}, fmt.Errorf("count must be non-negative")
	}
	n := o.Count
	if n == 0 {
		n = 1
	}
	return feedback.Record{
		Collective: o.Collective,
		Procs:      o.Procs,
		MsgBytes:   o.MsgBytes,
		ImbMicro:   int64(math.Round(o.Imbalance * 1e6)),
		SpreadNs:   o.SpreadNs,
		Count:      n,
	}, nil
}

// handleObserve ingests a batch of arrival-pattern observations. The
// whole path is non-blocking: validation, then a buffered hand-off to the
// feedback pipeline. A full buffer sheds the batch with 429 + Retry-After
// — ingestion pressure must never queue unboundedly inside the serving
// process or touch the /select hot path.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.feedback == nil {
		s.httpError(w, "observe", http.StatusNotFound, "feedback loop disabled (-observe-wal not set)")
		return
	}
	if r.Method != http.MethodPost {
		s.httpError(w, "observe", http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ObserveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.observeRejected.Add(1)
		s.httpError(w, "observe", http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	if len(req.Observations) == 0 {
		s.metrics.observeRejected.Add(1)
		s.httpError(w, "observe", http.StatusBadRequest, "empty observation batch")
		return
	}
	if len(req.Observations) > maxObserveBatch {
		s.metrics.observeRejected.Add(1)
		s.httpError(w, "observe", http.StatusBadRequest,
			"batch of %d exceeds the %d-observation limit", len(req.Observations), maxObserveBatch)
		return
	}
	recs := make([]feedback.Record, 0, len(req.Observations))
	for i, o := range req.Observations {
		rec, err := validateObservation(o)
		if err != nil {
			s.metrics.observeRejected.Add(1)
			s.httpError(w, "observe", http.StatusBadRequest, "observation %d: %v", i, err)
			return
		}
		recs = append(recs, rec)
	}
	switch err := s.feedback.Offer(recs); {
	case errors.Is(err, feedback.ErrBusy):
		s.metrics.observeShed.Add(1)
		// 1 or 2 s at random, so producers shed by one overload do not
		// re-offer in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(2)))
		s.httpError(w, "observe", http.StatusTooManyRequests, "observation buffer full, retry later")
	case errors.Is(err, feedback.ErrClosed):
		s.httpError(w, "observe", http.StatusServiceUnavailable, "feedback pipeline shut down")
	case err != nil:
		s.httpError(w, "observe", http.StatusInternalServerError, "%v", err)
	default:
		s.metrics.observeBatches.Add(1)
		s.metrics.observeRecords.Add(int64(len(recs)))
		s.writeJSON(w, "observe", http.StatusAccepted, ObserveResponse{Accepted: len(recs)})
	}
}
