package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"collsel/internal/cluster"
	"collsel/internal/feedback"
)

// metrics is a minimal, dependency-free Prometheus-text metric set. Only
// what /metrics renders is implemented: counters, one latency histogram and
// a few gauges computed at scrape time.
type metrics struct {
	// requests counts finished HTTP requests by (endpoint, code).
	requestsMu sync.Mutex
	requests   map[[2]string]*atomic.Int64

	// Select-path traffic.
	tableHits    atomic.Int64 // answered from the loaded table
	tableMisses  atomic.Int64 // not in the table (answered by the miss path)
	coldComputes atomic.Int64 // live selections actually executed
	inflightCold atomic.Int64 // live selections currently executing

	// sources counts served /select answers by response source, indexed
	// like sourceNames; promotions counts cells installed into the table,
	// modelPromotions those from background refinements.
	sources         [len(sourceNames)]atomic.Int64
	promotions      atomic.Int64
	modelPromotions atomic.Int64

	// Coverage accounting: every well-formed /select query against a
	// loaded table widens the observed (procs, msg_bytes) range, whether
	// or not the table covered it. Min slots use 0 as "unset".
	selectQueries atomic.Int64
	qProcsMin     atomic.Int64
	qProcsMax     atomic.Int64
	qMsgMin       atomic.Int64
	qMsgMax       atomic.Int64

	// Refinements refused before they simulate.
	shed         atomic.Int64 // shed by the refinement gate (in-flight bound reached)
	negativeHits atomic.Int64 // suppressed by a remembered failure

	// Observe-path (feedback ingestion) traffic.
	observeBatches  atomic.Int64 // batches accepted into the feedback pipeline
	observeRecords  atomic.Int64 // records accepted across those batches
	observeShed     atomic.Int64 // batches shed with 429 (ingest buffer full)
	observeRejected atomic.Int64 // batches rejected as malformed (400)

	// Replication-layer traffic (rendered only when clustering is on).
	peerCellsAccepted atomic.Int64 // /peer/cell payloads promoted into the table
	peerCellsIgnored  atomic.Int64 // /peer/cell payloads identical to a compiled cell
	peerCellsRejected atomic.Int64 // /peer/cell payloads rejected (malformed or wrong provenance)

	// artifactFallbacks counts table loads served from the retained
	// last-known-good artifact because the primary was corrupt or missing.
	artifactFallbacks atomic.Int64

	// latency is the /select latency histogram.
	latency histogram
}

func newMetrics() *metrics {
	return &metrics{requests: map[[2]string]*atomic.Int64{}}
}

// sourceNames is the fixed label set of collseld_select_source_total, in
// render order. Every fillFromCell site maps to exactly one of these.
var sourceNames = [...]string{"model", "nearest", "peer", "table"}

func (m *metrics) countSource(source string) {
	for i, n := range sourceNames {
		if n == source {
			m.sources[i].Add(1)
			return
		}
	}
}

// recordQuery folds one /select query into the coverage accounting.
func (m *metrics) recordQuery(procs, msgBytes int) {
	m.selectQueries.Add(1)
	atomicMin(&m.qProcsMin, int64(procs))
	atomicMax(&m.qProcsMax, int64(procs))
	atomicMin(&m.qMsgMin, int64(msgBytes))
	atomicMax(&m.qMsgMax, int64(msgBytes))
}

// atomicMin lowers slot to v, treating 0 as unset (queries are positive).
func atomicMin(slot *atomic.Int64, v int64) {
	for {
		old := slot.Load()
		if old != 0 && old <= v {
			return
		}
		if slot.CompareAndSwap(old, v) {
			return
		}
	}
}

func atomicMax(slot *atomic.Int64, v int64) {
	for {
		old := slot.Load()
		if old >= v {
			return
		}
		if slot.CompareAndSwap(old, v) {
			return
		}
	}
}

// coverage snapshots the table-coverage view /healthz reports.
func (m *metrics) coverage(cells int) *Coverage {
	cov := &Coverage{
		TableCells:         cells,
		Queries:            m.selectQueries.Load(),
		TableHits:          m.tableHits.Load(),
		QueriedProcsMin:    int(m.qProcsMin.Load()),
		QueriedProcsMax:    int(m.qProcsMax.Load()),
		QueriedMsgBytesMin: int(m.qMsgMin.Load()),
		QueriedMsgBytesMax: int(m.qMsgMax.Load()),
	}
	if cov.Queries > 0 {
		cov.HitRate = float64(cov.TableHits) / float64(cov.Queries)
	}
	return cov
}

func (m *metrics) countRequest(endpoint string, code int) {
	key := [2]string{endpoint, fmt.Sprintf("%d", code)}
	m.requestsMu.Lock()
	c := m.requests[key]
	if c == nil {
		c = &atomic.Int64{}
		m.requests[key] = c
	}
	m.requestsMu.Unlock()
	c.Add(1)
}

// histogram is a fixed-bucket latency histogram (seconds).
type histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64 // last bucket is +Inf
	sum    atomicFloat
	total  atomic.Int64
}

// latencyBuckets spans table lookups (sub-microsecond) through peer
// forwards (up to the select timeout).
var latencyBuckets = [...]float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i].Add(1)
	h.sum.add(seconds)
	h.total.Add(1)
}

// atomicFloat accumulates a float64 with a CAS loop.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}
func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// render writes the Prometheus text exposition. tableInfo supplies the
// gauges that depend on the currently loaded table (version, age, cells,
// swaps), read at scrape time so a hot swap is visible immediately;
// queueDepth is the number of refinements waiting for a worker slot.
func (m *metrics) render(b *strings.Builder, tableInfo func() (version string, ageSec float64, cells int, swaps int64), queueDepth int64) {
	fmt.Fprintf(b, "# HELP collseld_requests_total Finished HTTP requests.\n")
	fmt.Fprintf(b, "# TYPE collseld_requests_total counter\n")
	m.requestsMu.Lock()
	keys := make([][2]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(b, "collseld_requests_total{endpoint=%q,code=%q} %d\n", k[0], k[1], m.requests[k].Load())
	}
	m.requestsMu.Unlock()

	e := expo{b}
	e.counter("collseld_table_hits_total", "Select queries answered from the decision table.", m.tableHits.Load())
	e.counter("collseld_table_misses_total", "Select queries not covered by the decision table.", m.tableMisses.Load())
	e.counter("collseld_cold_computes_total", "Live selections executed by background refinements.", m.coldComputes.Load())
	e.counter("collseld_shed_total", "Background refinements shed (in-flight bound reached).", m.shed.Load())
	e.counter("collseld_negative_cache_hits_total", "Background refinements suppressed by a remembered failure.", m.negativeHits.Load())
	e.counter("collseld_promotions_total", "Cells promoted into the serving table (refined or from a peer).", m.promotions.Load())
	e.counter("collseld_model_promotions_total", "Model-tier background refinements promoted into the serving table.", m.modelPromotions.Load())
	e.counter("collseld_artifact_fallbacks_total", "Table loads recovered from the last-known-good artifact.", m.artifactFallbacks.Load())

	fmt.Fprintf(b, "# HELP collseld_select_source_total Served select answers by response source.\n")
	fmt.Fprintf(b, "# TYPE collseld_select_source_total counter\n")
	for i, name := range sourceNames {
		fmt.Fprintf(b, "collseld_select_source_total{source=%q} %d\n", name, m.sources[i].Load())
	}

	e.gauge("collseld_inflight_cold", "Live selections currently executing.", m.inflightCold.Load())
	e.gauge("collseld_cold_queue_depth", "Background refinements waiting for a worker slot.", queueDepth)

	fmt.Fprintf(b, "# HELP collseld_select_latency_seconds Select request latency.\n")
	fmt.Fprintf(b, "# TYPE collseld_select_latency_seconds histogram\n")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += m.latency.counts[i].Load()
		fmt.Fprintf(b, "collseld_select_latency_seconds_bucket{le=%q} %d\n", formatFloat(ub), cum)
	}
	cum += m.latency.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(b, "collseld_select_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(b, "collseld_select_latency_seconds_sum %g\n", m.latency.sum.load())
	fmt.Fprintf(b, "collseld_select_latency_seconds_count %d\n", m.latency.total.Load())

	version, age, cells, swaps := tableInfo()
	fmt.Fprintf(b, "# HELP collseld_table_info Currently loaded decision table (value is always 1).\n")
	fmt.Fprintf(b, "# TYPE collseld_table_info gauge\n")
	fmt.Fprintf(b, "collseld_table_info{version=%q} 1\n", version)
	fmt.Fprintf(b, "# HELP collseld_table_age_seconds Seconds since the table was installed.\n")
	fmt.Fprintf(b, "# TYPE collseld_table_age_seconds gauge\n")
	fmt.Fprintf(b, "collseld_table_age_seconds %g\n", age)
	e.gauge("collseld_table_cells", "Compiled cells in the loaded table.", int64(cells))
	e.counter("collseld_table_swaps_total", "Table installs (initial load, reloads, promotions and feedback recompiles).", swaps)
}

func formatFloat(v float64) string { return fmt.Sprintf("%g", v) }

// expo appends unlabelled samples, each with its HELP and TYPE lines, to
// a Prometheus text exposition. collsellint's metrichygiene analyzer reads
// metric declarations from calls to its methods.
type expo struct{ b *strings.Builder }

func (e expo) counter(name, help string, v int64) {
	fmt.Fprintf(e.b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (e expo) gauge(name, help string, v int64) {
	fmt.Fprintf(e.b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// renderFeedback appends the feedback-loop exposition: observe-path
// counters plus a snapshot of the pipeline (WAL, aggregation, recompiler,
// promotion). Rendered only when a pipeline is configured, after the core
// render — scrapes of a plain server are byte-identical to pre-feedback
// builds.
func renderFeedback(b *strings.Builder, m *metrics, st feedback.Stats) {
	e := expo{b}
	e.counter("collseld_observe_batches_total", "Observation batches accepted by /observe.", m.observeBatches.Load())
	e.counter("collseld_observe_records_total", "Observation records accepted by /observe.", m.observeRecords.Load())
	e.counter("collseld_observe_shed_total", "Observation batches shed with 429 (ingest buffer full).", m.observeShed.Load())
	e.counter("collseld_observe_rejected_total", "Observation batches rejected as malformed.", m.observeRejected.Load())

	e.counter("collseld_feedback_wal_records_total", "Records appended to the observation WAL (including replayed).", st.WAL.Records)
	e.gauge("collseld_feedback_wal_bytes", "Bytes in the observation WAL (active segment plus sealed).", st.WAL.Bytes)
	e.gauge("collseld_feedback_wal_segments", "Sealed observation WAL segments on disk.", int64(st.WAL.Segments))
	e.counter("collseld_feedback_wal_errors_total", "Observation WAL append failures.", st.WALErrors)
	e.gauge("collseld_feedback_profiles", "Live empirical skew-profile buckets.", int64(st.Profiles))
	e.gauge("collseld_feedback_pending_batches", "Accepted observation batches not yet ingested.", st.PendingBatches)
	e.counter("collseld_feedback_batches_ingested_total", "Observation batches WALed and folded.", st.BatchesIngested)
	e.counter("collseld_feedback_records_ingested_total", "Observation records WALed and folded.", st.RecordsIngested)

	e.counter("collseld_feedback_recompile_attempts_total", "Background recompilation attempts.", st.RecompileAttempts)
	e.counter("collseld_feedback_recompile_successes_total", "Recompilations promoted into the serving table.", st.RecompileSuccesses)
	e.counter("collseld_feedback_recompile_failures_total", "Recompilation attempts that failed.", st.RecompileFailures)
	e.counter("collseld_feedback_swaps_lost_total", "Promotions dropped after losing the swap race to a reload.", st.SwapsLost)
	e.counter("collseld_feedback_swaps_total", "Tables promoted by the feedback loop.", st.SwapGeneration)
	e.gauge("collseld_feedback_parked", "1 while a failed recompile waits for new evidence or a reload, else 0.", st.Parked)
}

// renderCluster appends the replication-layer exposition: forward and
// share counters, per-peer health states and the /peer/cell gossip
// counters. Rendered only when a cluster is configured, after the
// core (and feedback) render — scrapes of a single-replica server are
// byte-identical to non-clustered builds.
func renderCluster(b *strings.Builder, m *metrics, st cluster.Stats) {
	e := expo{b}
	e.counter("collseld_cluster_forwards_total", "Cold queries forwarded to their owning replica.", st.Forwards)
	e.counter("collseld_cluster_forward_errors_total", "Forwards that failed or timed out (answered locally).", st.ForwardErrors)
	e.counter("collseld_cluster_owner_unavailable_total", "Forwards refused because the owner was suspect or dead.", st.OwnerUnavailable)
	e.counter("collseld_cluster_shares_sent_total", "Cold-cell gossip deliveries to peers.", st.SharesSent)
	e.counter("collseld_cluster_share_errors_total", "Cold-cell gossip deliveries that failed.", st.ShareErrors)
	e.counter("collseld_cluster_shares_dropped_total", "Cold-cell shares dropped (queue full or shut down).", st.SharesDropped)

	fmt.Fprintf(b, "# HELP collseld_cluster_peer_state Peer health (0=alive, 1=suspect, 2=dead).\n")
	fmt.Fprintf(b, "# TYPE collseld_cluster_peer_state gauge\n")
	stateNum := map[string]int{"alive": 0, "suspect": 1, "dead": 2}
	for _, p := range st.Peers {
		fmt.Fprintf(b, "collseld_cluster_peer_state{peer=%q} %d\n", p.Peer, stateNum[p.State])
	}

	e.counter("collseld_peer_cells_accepted_total", "Gossiped peer cells promoted into the serving table.", m.peerCellsAccepted.Load())
	e.counter("collseld_peer_cells_ignored_total", "Gossiped peer cells identical to an already-compiled cell.", m.peerCellsIgnored.Load())
	e.counter("collseld_peer_cells_rejected_total", "Gossiped peer cells rejected (malformed or wrong provenance).", m.peerCellsRejected.Load())
}
