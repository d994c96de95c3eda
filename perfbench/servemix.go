package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"collsel/internal/coll"
	"collsel/internal/feedback"
	"collsel/internal/model"
	"collsel/internal/netmodel"
	"collsel/internal/serve"
	"collsel/internal/store"
)

// The serve-mix workload runs the collseld stack in process — a compiled
// 54-cell table, serve.New with the model tier on and a feedback pipeline
// on a temporary WAL — behind a loopback listener, and drives it with a
// closed loop over one keep-alive connection per worker: an MPI rank
// blocks on its answer while a communicator is set up, so each connection
// sends its next request only after the previous answer arrived.

// serveTableConfig is the served table: reduce, allreduce and alltoall ×
// procs {8,16,32} × the default size ladder (54 cells).
func serveTableConfig(o options, pl *netmodel.Platform) store.CompileConfig {
	cfg := gridConfig(o, pl)
	cfg.ProcsList = []int{8, 16, 32}
	if o.small {
		cfg.ProcsList = []int{8}
	}
	return cfg
}

// uncoveredCells is the fixed set of 24 cells the table does not cover:
// every collective at eight communicator sizes outside the table's, one
// message size each. Each sits in its own (collective, procs) section, so
// promoting one never changes the answer for another.
func uncoveredCells(o options, cfg store.CompileConfig) []gridPoint {
	procs := []int{4, 6, 10, 12, 20, 24, 28, 40}
	sizes := []int{8, 64, 1024, 16384}
	if o.small {
		procs = procs[:2]
	}
	var out []gridPoint
	for ci, c := range cfg.Collectives {
		for pi, p := range procs {
			out = append(out, gridPoint{c, p, sizes[(ci+pi)%len(sizes)]})
		}
	}
	return out
}

// Operation kinds of the client's request mix.
const (
	opHit = iota
	opMiss
	opObserve
)

// op is one request of the mix.
type op struct {
	kind  int
	idx   int // opHit: hot-pool index
	path  string
	body  []byte       // opObserve: the POST body
	want  store.Lookup // opHit: the snapshot table's answer
	point gridPoint
}

func selectPath(p gridPoint) string {
	return "/select?collective=" + url.QueryEscape(p.c.String()) +
		"&procs=" + strconv.Itoa(p.procs) + "&msg_bytes=" + strconv.Itoa(p.size)
}

// hotPool draws table hits from the seed: every cell of the table, at its
// compiled size or at an off-ladder size inside its bin.
func hotPool(rng *rand.Rand, t *store.Table, n int) ([]op, error) {
	type cell struct {
		c         coll.Collective
		procs, lo int
		hi        int // exclusive bin end
	}
	var cells []cell
	for _, sec := range t.Sections {
		c, ok := coll.CollectiveByName(sec.Collective)
		if !ok {
			return nil, fmt.Errorf("table section %q is not a collective", sec.Collective)
		}
		for i, cl := range sec.Cells {
			hi := 10*cl.MsgBytes + 1
			if i+1 < len(sec.Cells) {
				hi = sec.Cells[i+1].MsgBytes
			}
			cells = append(cells, cell{c, sec.Procs, cl.MsgBytes, hi})
		}
	}
	pool := make([]op, n)
	for i := range pool {
		cl := cells[rng.Intn(len(cells))]
		size := cl.lo
		if rng.Intn(2) == 1 {
			size = cl.lo + rng.Intn(cl.hi-cl.lo)
		}
		p := gridPoint{cl.c, cl.procs, size}
		lk, ok := t.Get(p.c, p.procs, p.size)
		if !ok {
			return nil, fmt.Errorf("hot query %v misses the table", p)
		}
		pool[i] = op{kind: opHit, idx: i, path: selectPath(p), want: lk, point: p}
	}
	return pool, nil
}

// mixedPool is the mixed phase's sequence: about 90% hits from the hot
// pool, every uncovered cell four times (about 5%), and about 5% /observe
// batches whose imbalance stays near the table's skew factor, so that no
// cell drifts past the recompile threshold.
func mixedPool(rng *rand.Rand, hot []op, miss []gridPoint, t *store.Table, n int) ([]op, error) {
	var pool []op
	for rep := 0; rep < 4; rep++ {
		for _, p := range miss {
			pool = append(pool, op{kind: opMiss, path: selectPath(p), point: p})
		}
	}
	factor := t.Factor
	if factor == 0 {
		factor = 1 // the selection grid's default skew factor
	}
	for len(pool) < n/10 {
		var req serve.ObserveRequest
		for j := 0; j < 8; j++ {
			h := hot[rng.Intn(len(hot))].point
			req.Observations = append(req.Observations, serve.Observation{
				Collective: h.c.String(),
				Procs:      h.procs,
				MsgBytes:   h.size,
				Imbalance:  factor * (0.95 + 0.1*rng.Float64()),
				Count:      int64(1 + rng.Intn(4)),
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool = append(pool, op{kind: opObserve, path: "/observe", body: body})
	}
	for len(pool) < n {
		pool = append(pool, hot[rng.Intn(len(hot))])
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// stack is one in-process collseld.
type stack struct {
	base   *store.Table // the compiled table
	handle *store.Handle
	pipe   *feedback.Pipeline
	srv    *serve.Server
	hs     *http.Server
	url    string
	walDir string
	served chan error
	// colds counts cold selections (foreground or refinement).
	colds atomic.Int64
}

// startStack serves t on a loopback listener. tr, when non-nil, records a
// span per traced request (middleware around the handler) and per cold
// selection (Config.Cold wraps serve.Fallback).
func startStack(o options, t *store.Table, i int, tr *tracer) (*stack, error) {
	st := &stack{base: t, handle: store.NewHandle(t), walDir: filepath.Join(o.workdir, fmt.Sprintf("wal-%d", i))}
	if err := os.RemoveAll(st.walDir); err != nil {
		return nil, err
	}
	var err error
	st.pipe, err = feedback.New(feedback.Config{WALDir: st.walDir, Handle: st.handle})
	if err != nil {
		return nil, err
	}
	st.pipe.Start()
	cold := func(ctx context.Context, t *store.Table, c coll.Collective, procs, msgBytes int) (cell store.Cell, err error) {
		st.colds.Add(1)
		tr.do("serve.cold", 0, 0, func(int64) { cell, err = serve.Fallback(ctx, t, c, procs, msgBytes) })
		return cell, err
	}
	st.srv, err = serve.New(serve.Config{Handle: st.handle, ModelTier: true, Feedback: st.pipe, Cold: cold})
	if err != nil {
		st.pipe.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.pipe.Close()
		return nil, err
	}
	h := st.srv.Handler()
	if tr != nil {
		h = handlerSpans(tr, h)
	}
	st.hs = &http.Server{Handler: h}
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	return st, nil
}

// close shuts the listener, joins background refinements, closes the
// feedback pipeline and removes the WAL.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.srv.WaitBackground()
	if cerr := st.pipe.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(st.walDir); err == nil {
		err = rerr
	}
	return err
}

// Request headers carrying the client span to the handler middleware.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// handlerSpans records a serve.handler span per traced request, parented
// to the client span named in the request headers; requests from
// untraced clients carry no span header and pass straight through.
func handlerSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		tr.do("serve.handler", parent, req, func(int64) { h.ServeHTTP(w, r) })
	})
}

// phaseStats is what one client phase measured.
type phaseStats struct {
	seconds   float64
	cpuS      float64     // process CPU time during the phase
	cpuPerReq []float64   // process CPU seconds per request, per window
	rssMB     []float64   // resident-set window peaks
	lat       [][]float32 // request latencies in µs, one slice per connection
	requests  int
	failed    int
	shed      int
	sources   map[string]int
	failures  []string
}

func (a *phaseStats) merge(b *phaseStats) {
	a.lat = append(a.lat, b.lat...)
	a.cpuPerReq = append(a.cpuPerReq, b.cpuPerReq...)
	a.rssMB = append(a.rssMB, b.rssMB...)
	a.requests += b.requests
	a.failed += b.failed
	a.shed += b.shed
	for k, v := range b.sources {
		a.sources[k] += v
	}
	if len(a.failures) < 5 {
		a.failures = append(a.failures, b.failures...)
	}
}

func (a *phaseStats) fail(format string, args ...any) {
	a.failed++
	if len(a.failures) < 5 {
		a.failures = append(a.failures, fmt.Sprintf(format, args...))
	}
}

func (a *phaseStats) rps() float64 { return float64(a.requests) / a.seconds }

// latencies returns every recorded latency in µs.
func (a *phaseStats) latencies() []float64 {
	var out []float64
	for _, l := range a.lat {
		for _, v := range l {
			out = append(out, float64(v))
		}
	}
	return out
}

// latencyBuffers preallocates one latency slice per connection for a
// phase of the given length, so that recording a phase's latencies
// neither copies nor grows the heap while the phase runs.
func latencyBuffers(conns int, phase time.Duration) [][]float32 {
	const maxRPS = 40000 // above the closed loop's rate on two cores
	per := int(phase.Seconds()*maxRPS) / conns
	bufs := make([][]float32, conns)
	for i := range bufs {
		bufs[i] = make([]float32, 0, per)
	}
	return bufs
}

// client is one closed-loop connection.
type client struct {
	http *http.Client
	base string
	tr   *tracer
	buf  bytes.Buffer
	memo map[int][]byte // hot-pool index -> last verified body
}

func newClient(base string, tr *tracer) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
		memo: map[int][]byte{},
	}
}

func (cl *client) close() { cl.http.CloseIdleConnections() }

// do sends one request and returns its status and body; the body is valid
// until the next call.
func (cl *client) do(ctx context.Context, o *op, reqID int64) (int, []byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if o.kind == opObserve {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+o.path, body)
	if err != nil {
		return 0, nil, err
	}
	var code int
	run := func(spanID int64) {
		if cl.tr != nil {
			req.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
			req.Header.Set(hdrSpan, strconv.FormatInt(spanID, 10))
		}
		var resp *http.Response
		resp, err = cl.http.Do(req)
		if err != nil {
			return
		}
		cl.buf.Reset()
		_, err = cl.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	}
	cl.tr.do("http.client", 0, reqID, run)
	return code, cl.buf.Bytes(), err
}

// verify checks one answer and records its source.
func (cl *client) verify(o *op, code int, body []byte, ps *phaseStats) {
	if o.kind == opObserve {
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			ps.shed++
			ps.fail("observe shed")
		default:
			ps.fail("observe: HTTP %d %s", code, body)
		}
		return
	}
	if code != http.StatusOK {
		ps.fail("%s: HTTP %d %s", o.path, code, body)
		return
	}
	if o.kind == opHit {
		if prev, ok := cl.memo[o.idx]; ok && bytes.Equal(prev, body) {
			ps.sources["table"]++
			return
		}
	}
	var r serve.SelectResponse
	if err := json.Unmarshal(body, &r); err != nil {
		ps.fail("%s: %v", o.path, err)
		return
	}
	ps.sources[r.Source]++
	switch o.kind {
	case opHit:
		w := o.want
		if r.Source != "table" || r.Exact != w.Exact || r.Algorithm != w.Cell.Winner || r.Score != w.Cell.Score ||
			r.RunnerUp != w.Cell.RunnerUp || r.Margin != w.Cell.Margin || r.Conventional != w.Cell.Conventional {
			ps.fail("%s: answer %s/%s differs from the table cell %s", o.path, r.Source, r.Algorithm.Name, w.Cell.Winner.Name)
			return
		}
		cl.memo[o.idx] = append([]byte(nil), body...)
	case opMiss:
		switch r.Source {
		case "model":
			if r.Exact {
				ps.fail("%s: model answer claims exact", o.path)
			}
		case "table", "cold_cache", "computed":
		default:
			ps.fail("%s: unexpected source %q", o.path, r.Source)
		}
	}
}

// cpuWindow is the length of the windows over which runPhase samples
// process CPU time per request.
const cpuWindow = time.Second

// runPhase drives the closed loop over the pool for dur, one goroutine
// per connection, each starting at its own offset. Samplers record the
// process CPU time per request and the resident-set peak of each window
// of the phase.
func runPhase(ctx context.Context, clients []*client, pool []op, dur time.Duration, reqBase int64, lat [][]float32) *phaseStats {
	out := &phaseStats{sources: map[string]int{}}
	parts := make([]*phaseStats, len(clients))
	var done atomic.Int64
	var wg sync.WaitGroup
	rss := startRSSWindows()
	w := startWatch()
	deadline := w.wall.Add(dur)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(cpuWindow)
		defer tick.Stop()
		cpu, n := cpuSeconds(), done.Load()
		window := func() {
			c, m := cpuSeconds(), done.Load()
			if m > n {
				out.cpuPerReq = append(out.cpuPerReq, (c-cpu)/float64(m-n))
			}
			cpu, n = c, m
		}
		for {
			select {
			case <-stop:
				if len(out.cpuPerReq) == 0 {
					window() // a phase shorter than one window is one window
				}
				return
			case <-tick.C:
				window()
			}
		}
	}()
	var clientsWG sync.WaitGroup
	for w, cl := range clients {
		clientsWG.Add(1)
		go func() {
			defer clientsWG.Done()
			ps := &phaseStats{sources: map[string]int{}, lat: [][]float32{lat[w]}}
			parts[w] = ps
			i := w * len(pool) / len(clients)
			reqID := reqBase + int64(w)<<40
			for time.Now().Before(deadline) {
				o := &pool[i%len(pool)]
				i++
				reqID++
				t0 := time.Now()
				code, body, err := cl.do(ctx, o, reqID)
				ps.lat[0] = append(ps.lat[0], float32(time.Since(t0))/1e3)
				ps.requests++
				done.Add(1)
				if err != nil {
					ps.fail("%s: %v", o.path, err)
					continue
				}
				cl.verify(o, code, body, ps)
			}
		}()
	}
	clientsWG.Wait()
	close(stop)
	wg.Wait()
	out.seconds, out.cpuS = w.elapsed()
	out.rssMB = rss.done()
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// serveRun is the state a serve-mix run builds before its phases.
type serveRun struct {
	st    *stack
	hot   []op
	mixed []op
	miss  []gridPoint
}

func buildPools(o options, t *store.Table, cfg store.CompileConfig) ([]op, []op, []gridPoint, error) {
	rng := rand.New(rand.NewSource(o.seed))
	hot, err := hotPool(rng, t, 1024)
	if err != nil {
		return nil, nil, nil, err
	}
	miss := uncoveredCells(o, cfg)
	for _, p := range miss {
		if _, ok := t.Get(p.c, p.procs, p.size); ok {
			return nil, nil, nil, fmt.Errorf("uncovered cell %v is covered", p)
		}
	}
	mixed, err := mixedPool(rng, hot, miss, t, 2048)
	return hot, mixed, miss, err
}

func runServeMix(ctx context.Context, o options) (*result, error) {
	if o.trace {
		return traceServeMix(ctx, o)
	}
	res := newResult()
	var run serveRun
	var pl *netmodel.Platform
	setup, err := timeSetups(func(i int) (func(), error) {
		pl = netmodel.SimCluster()
		cfg := serveTableConfig(o, pl)
		cfg.Runner = freshRunner(o)
		t, err := store.Compile(ctx, cfg)
		if err != nil {
			return nil, err
		}
		run.st, err = startStack(o, t, i, nil)
		if err != nil {
			return nil, err
		}
		st := run.st
		return func() { st.close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer run.st.close()
	cfg := serveTableConfig(o, pl)
	run.hot, run.mixed, run.miss, err = buildPools(o, run.st.base, cfg)
	if err != nil {
		return nil, err
	}
	clients := make([]*client, o.workers)
	for i := range clients {
		clients[i] = newClient(run.st.url, nil)
		defer clients[i].close()
	}
	half := time.Duration(o.seconds * float64(time.Second) / 2)
	hotLat, mixedLat := latencyBuffers(len(clients), half), latencyBuffers(len(clients), half)
	debug.FreeOSMemory() // the set-up's garbage is not the measured work's footprint
	pr := newProbe()
	r0 := pr.read()
	hot := runPhase(ctx, clients, run.hot, half, 0, hotLat)
	r1 := pr.read()
	// The digest is taken before the mixed phase promotes cells: every
	// promotion re-versions the table, and answers carry the version.
	digest, err := hotDigest(ctx, clients[0], run.hot)
	if err != nil {
		return nil, err
	}
	res.digest = digest
	r1b := pr.read()
	mixed := runPhase(ctx, clients, run.mixed, half, 0, mixedLat)
	r2 := pr.read()

	all := &phaseStats{sources: map[string]int{}}
	all.merge(hot)
	all.merge(mixed)
	all.seconds = hot.seconds + mixed.seconds
	all.cpuS = hot.cpuS + mixed.cpuS
	res.attempted += all.requests
	res.failed += all.failed
	res.check("hot-answers", hot.failed == 0, "%d of %d failed %v", hot.failed, hot.requests, hot.failures)
	res.check("mixed-answers", mixed.failed == 0, "%d of %d failed %v", mixed.failed, mixed.requests, mixed.failures)

	if _, err := drainAndRecheck(ctx, clients[0], &run, res); err != nil {
		return nil, err
	}

	// CPU per request: the median over each phase's windows, so that a
	// burst of stolen vCPU time skews a window, not the run; the two
	// phases weigh equally, as they last equally long.
	cpuMs := (median(hot.cpuPerReq) + median(mixed.cpuPerReq)) / 2 * 1e3
	// Serving has no unit of work with its own peak: a phase's footprint
	// is the median of its window peaks (the mixed phase's overall peak
	// depends on whether two background refinements overlapped), and the
	// larger phase counts.
	rss := []float64{max(median(hot.rssMB), median(mixed.rssMB))}
	fillEndToEnd(res, setup, rss, cpuMs, usToMs(all.latencies()))

	res.note("rps", all.rps(), "1/s")
	res.note("cpu_ms_per_req_total", all.cpuS*1e3/float64(max(all.requests, 1)), "ms")
	notePhase(res, "hot", hot, r0.to(r1))
	notePhase(res, "mixed", mixed, r1b.to(r2))
	return res, nil
}

func usToMs(us []float64) []float64 {
	out := make([]float64, len(us))
	for i, v := range us {
		out[i] = v / 1e3
	}
	return out
}

func notePhase(res *result, name string, ps *phaseStats, c reading) {
	res.note(name+"_rps", ps.rps(), "1/s")
	lat := ps.latencies()
	res.note(name+"_p50_us", quantile(lat, 0.50), "us")
	res.note(name+"_p99_us", quantile(lat, 0.99), "us")
	res.note(name+"_cpu_us_per_req", ps.cpuS*1e6/float64(max(ps.requests, 1)), "us")
	res.note(name+"_requests", float64(ps.requests), "count")
	res.note("go.gc_cpu_share."+name, c.gcShare(), "ratio")
}

// hotDigest queries every hot-pool entry once, in pool order, and digests
// the answers.
func hotDigest(ctx context.Context, cl *client, hot []op) (string, error) {
	h := sha256.New()
	for i := range hot {
		code, body, err := cl.do(ctx, &hot[i], 0)
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("%s: HTTP %d", hot[i].path, code)
		}
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// drainAndRecheck waits for every background refinement, then queries
// each uncovered cell again until it is answered exactly (from the table
// or the cold cache) and checks that it names the winner serve.Fallback
// computes. It reports how many refined cells landed in the table and
// returns the re-checked cells.
func drainAndRecheck(ctx context.Context, cl *client, run *serveRun, res *result) ([]store.Cell, error) {
	start := time.Now()
	run.st.srv.WaitBackground()
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err := run.st.pipe.Quiesce(qctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("feedback quiesce: %w", err)
	}
	res.note("serve.refine_drain_s", time.Since(start).Seconds(), "s")

	snap := run.st.srv.TableSnapshot()
	cells := make([]store.Cell, len(run.miss))
	for i, p := range run.miss {
		o := op{kind: opMiss, path: selectPath(p)}
		var r serve.SelectResponse
		for round := 0; ; round++ {
			code, body, err := cl.do(ctx, &o, 0)
			if err != nil {
				return nil, err
			}
			if code != http.StatusOK {
				return nil, fmt.Errorf("%s: HTTP %d %s", o.path, code, body)
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return nil, err
			}
			if r.Exact || round == 10 {
				break
			}
			run.st.srv.WaitBackground() // a shed refinement was re-triggered
		}
		want, err := serve.Fallback(ctx, snap, p.c, p.procs, p.size)
		if err != nil {
			return nil, err
		}
		cells[i] = want
		res.check("missed-cell-recheck", r.Exact && r.Algorithm == want.Winner,
			"%s/%d/%d: %s answer %s, fallback %s", p.c, p.procs, p.size, r.Source, r.Algorithm.Name, want.Winner.Name)
	}
	// A refinement whose promotion loses the table swap to another one is
	// recomputed under the new table version, so refinements beyond one
	// per missed cell are wasted work.
	final := run.st.srv.TableSnapshot()
	landed := final.Cells() - run.st.base.Cells()
	refined := run.st.colds.Load()
	res.note("serve.refinements", float64(refined), "count")
	res.note("serve.promote_landed_ratio", float64(landed)/float64(max(refined, 1)), "ratio")
	fs := run.st.pipe.Stats()
	res.note("feedback.records_ingested", float64(fs.RecordsIngested), "count")
	res.note("feedback.recompiles", float64(fs.RecompileAttempts), "count")
	res.check("no-recompile", fs.RecompileAttempts == 0, "%d recompile attempts", fs.RecompileAttempts)
	return cells, nil
}

// traceServeMix is the traced serve-mix run: the table is compiled by the
// traced replay, the layers are probed directly, and the phases run with
// a span per request and per cold selection.
func traceServeMix(ctx context.Context, o options) (*result, error) {
	res := newResult()
	tr := newTracer()
	pr := newProbe()
	heap := startHeapSampler()
	r0 := pr.read()

	pl := netmodel.SimCluster()
	cfg := serveTableConfig(o, pl)
	t, cs, err := replayCompile(ctx, o, tr, cfg)
	if err != nil {
		return nil, err
	}
	cellCost := r0.to(pr.read())
	st, err := startStack(o, t, 0, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	run := serveRun{st: st}
	run.hot, run.mixed, run.miss, err = buildPools(o, t, cfg)
	if err != nil {
		return nil, err
	}

	var qs []gridPoint
	for _, h := range run.hot {
		qs = append(qs, h.point)
	}
	lookup := lookupNs(t, qs)
	handlerUs, handlerAllocs := handlerProbe(st.srv.Handler(), run.hot, pr)
	res.note("serve.handler_us", handlerUs, "us")
	res.note("serve.handler_allocs", handlerAllocs, "count")
	res.note("model.select_us", modelProbe(pl, t, run.miss), "us")

	untracedClients := make([]*client, o.workers)
	tracedClients := make([]*client, o.workers)
	for i := range tracedClients {
		untracedClients[i] = newClient(st.url, nil)
		tracedClients[i] = newClient(st.url, tr)
		defer untracedClients[i].close()
		defer tracedClients[i].close()
	}
	quarter := time.Duration(o.seconds * float64(time.Second) / 4)
	hotUntraced := runPhase(ctx, untracedClients, run.hot, quarter, 0, latencyBuffers(o.workers, quarter))
	for _, cl := range untracedClients {
		cl.close() // at most o.workers connections are open during a phase
	}
	r1 := pr.read()
	hot := runPhase(ctx, tracedClients, run.hot, quarter, 0, latencyBuffers(o.workers, quarter))
	hotCost := r1.to(pr.read())
	digest, err := hotDigest(ctx, untracedClients[0], run.hot)
	if err != nil {
		return nil, err
	}
	res.digest = digest
	untracedClients[0].close()
	r2 := pr.read()
	mixed := runPhase(ctx, tracedClients, run.mixed, 2*quarter, 1<<50, latencyBuffers(o.workers, 2*quarter))
	r3 := pr.read()
	for _, ps := range []*phaseStats{hotUntraced, hot, mixed} {
		res.attempted += ps.requests
		res.failed += ps.failed
	}
	res.check("hot-answers", hot.failed+hotUntraced.failed == 0, "%d failed %v", hot.failed+hotUntraced.failed, hot.failures)
	res.check("mixed-answers", mixed.failed == 0, "%d of %d failed %v", mixed.failed, mixed.requests, mixed.failures)
	notePhase(res, "hot", hot, hotCost)
	notePhase(res, "mixed", mixed, r2.to(r3))
	selects := 0
	for _, n := range mixed.sources {
		selects += n
	}
	for _, src := range []string{"table", "model", "cold_cache", "computed"} {
		res.note("serve.source_share."+src, float64(mixed.sources[src])/float64(max(selects, 1)), "ratio")
	}
	res.note("feedback.observe_shed", float64(mixed.shed), "count")

	cells, err := drainAndRecheck(ctx, tracedClients[0], &run, res)
	if err != nil {
		return nil, err
	}
	res.note("store.withcell_us", withCellProbe(t, run.miss, cells), "us")
	runCost := r0.to(pr.read())
	heapPeak := heap.done()
	stats := fillPerLayer(res, tr, cs, cellCost, runCost, heapPeak, lookup, median(hot.cpuPerReq)/median(hotUntraced.cpuPerReq)-1)
	if s := stats["http.client"]; s != nil {
		res.note("http.loopback_us", quantile(s.selfs, 0.5)/1e3, "us")
	}
	if s := stats["serve.handler"]; s != nil {
		res.note("serve.handler_span_us", quantile(s.durs, 0.5)/1e3, "us")
	}
	if s := stats["serve.cold"]; s != nil {
		res.note("serve.cold_ms", quantile(s.durs, 0.5)/1e6, "ms")
		res.note("serve.cold_ms_max", maxOf(s.durs)/1e6, "ms")
	}
	return res, tr.write(tracePath(o))
}

// handlerProbe calls the /select handler directly into an
// httptest.ResponseRecorder for hot queries and returns the median
// microseconds per call over batches and the allocations per call
// (including the recorder's own).
func handlerProbe(h http.Handler, hot []op, pr *probe) (float64, float64) {
	const batches, perBatch = 20, 512
	reqs := make([]*http.Request, len(hot))
	for i, o := range hot {
		reqs[i] = httptest.NewRequest(http.MethodGet, o.path, nil)
	}
	var us []float64
	before := pr.read()
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			h.ServeHTTP(httptest.NewRecorder(), reqs[(b*perBatch+i)%len(reqs)])
		}
		us = append(us, float64(time.Since(start))/1e3/perBatch)
	}
	c := before.to(pr.read())
	return median(us), float64(c.allocObjects) / (batches * perBatch)
}

// modelProbe times the model tier's estimate for each uncovered cell and
// returns the median microseconds per call.
func modelProbe(pl *netmodel.Platform, t *store.Table, miss []gridPoint) float64 {
	var us []float64
	for rep := 0; rep < 10; rep++ {
		for _, p := range miss {
			start := time.Now()
			if _, err := model.Select(model.Spec{Platform: pl, Collective: p.c, MsgBytes: p.size,
				Procs: p.procs, Factor: t.Factor, Seed: t.Seed}); err != nil {
				return -1
			}
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	return median(us)
}

// withCellProbe times store.WithCell — the promotion of one refined cell
// into a copy of the table — and returns the median microseconds per call.
func withCellProbe(t *store.Table, miss []gridPoint, cells []store.Cell) float64 {
	var us []float64
	for rep := 0; rep < 10; rep++ {
		for i, p := range miss {
			start := time.Now()
			if _, err := store.WithCell(t, p.c, p.procs, cells[i]); err != nil {
				return -1
			}
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	return median(us)
}
