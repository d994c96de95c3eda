package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"collsel/internal/pattern"
	"collsel/internal/store"
)

// span is one timed call into a layer. Spans of one request (or one grid
// point) share req; parent is the span that caused this one (0: root).
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call
// site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id reserves a span id, so that children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a span named name; fn receives the span's id.
func (t *tracer) do(name string, parent, req int64, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.id()
	start := t.now()
	fn(id)
	t.add(span{name: name, id: id, parent: parent, req: req, start: start, end: t.now()})
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	count int
	durs  []float64 // ns
	selfs []float64 // ns
	self  float64   // ns, summed
}

// summarize computes each span's self time — its duration minus the part
// of its interval that its children cover — and aggregates by name.
func (t *tracer) summarize() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*layerStats{}
	for _, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		dur := float64(s.end - s.start)
		st.count++
		st.durs = append(st.durs, dur)
		self := dur - covered(s, children[s.id])
		st.selfs = append(st.selfs, self)
		st.self += self
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's; concurrent children (the runner's workers) overlap.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return float64(total + curHi - curLo)
}

// write dumps every span as a tab-separated line:
// name id parent req start_ns end_ns.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// len returns the number of recorded spans.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// goid returns the calling goroutine's id, parsed from its stack header.
// The runner reports each finished cell from the worker goroutine that
// ran it, so the id tells which cells ran back to back on one worker.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// cellSpans reconstructs one span per microbench cell from the runner's
// progress callbacks. A worker runs its cells back to back, so a cell
// started when the previous cell on the same worker goroutine finished;
// a worker's first cell started when its pass began. Pass 1 measures the
// no-delay row, which starts with the selection; the pattern rows start
// when the last no-delay cell finished (the pattern skew depends on it).
type cellSpans struct {
	tr        *tracer
	parent    int64
	req       int64
	passStart int64
	lastND    int64
	last      map[int64]int64 // worker goroutine -> last completion
	cells     int
	hits      int
	byAlg     map[string]float64 // algorithm -> summed cell ns
	durs      []float64          // cell ns
}

func newCellSpans(tr *tracer) *cellSpans {
	return &cellSpans{tr: tr, byAlg: map[string]float64{}}
}

// begin starts a new selection (expt span parent).
func (c *cellSpans) begin(parent, req int64) {
	c.parent, c.req = parent, req
	c.passStart = c.tr.now()
	c.lastND = c.passStart
	c.last = map[int64]int64{}
}

// done is the runner progress callback; the runner serializes its calls.
func (c *cellSpans) done(label string, hit bool) {
	now := c.tr.now()
	g := goid()
	noDelay := strings.HasPrefix(label, pattern.NoDelay.String()+"/")
	start, ok := c.last[g]
	if !ok {
		start = c.passStart
		if !noDelay {
			start = c.lastND
		}
	}
	c.last[g] = now
	if noDelay && now > c.lastND {
		c.lastND = now
	}
	c.cells++
	if hit {
		c.hits++
	}
	d := float64(now - start)
	c.durs = append(c.durs, d)
	if i := strings.IndexByte(label, '/'); i >= 0 {
		c.byAlg[label[i+1:]] += d
	}
	c.tr.add(span{name: "microbench.cell", id: c.tr.id(), parent: c.parent, req: c.req, start: start, end: now})
}

// lookupNs times store.Table.Get over the given points, cycling until
// about a million lookups ran, and returns ns per lookup.
func lookupNs(t *store.Table, qs []gridPoint) float64 {
	const n = 1 << 20
	misses := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		q := qs[i%len(qs)]
		if _, ok := t.Get(q.c, q.procs, q.size); !ok {
			misses++
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / n
	if misses > 0 {
		return -1
	}
	return ns
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// fillPerLayer sets the per-layer metrics every workload shares and notes
// each layer's self time. cellCost is the probe cost of the section that
// ran the microbench cells; runCost that of the whole traced section.
func fillPerLayer(res *result, tr *tracer, cs *cellSpans, cellCost, runCost reading, heapPeakMB, lookup, overhead float64) map[string]*layerStats {
	st := tr.summarize()
	get := func(name string) *layerStats {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStats{}
	}
	storeSelf := 0.0
	for name, s := range st {
		if strings.HasPrefix(name, "store.") {
			storeSelf += s.self
		}
	}
	cells := float64(max(cs.cells, 1))
	m := res.metrics
	m["expt.select_ms_p50"] = quantile(get("expt.select").durs, 0.5) / 1e6
	m["expt.self_ms"] = get("expt.select").self / 1e6
	m["microbench.cell_us_p50"] = quantile(cs.durs, 0.5) / 1e3
	m["microbench.self_ms"] = get("microbench.cell").self / 1e6
	m["microbench.alloc_kb_per_cell"] = float64(cellCost.allocBytes) / 1024 / cells
	m["microbench.allocs_per_cell"] = float64(cellCost.allocObjects) / cells
	m["runner.cells"] = float64(cs.cells)
	m["runner.cache_hit_ratio"] = float64(cs.hits) / cells
	m["store.self_ms"] = storeSelf / 1e6
	m["store.lookup_ns"] = lookup
	m["go.gc_cpu_share"] = runCost.gcShare()
	m["go.heap_peak_mb"] = heapPeakMB
	m["go.alloc_mb"] = float64(runCost.allocBytes) / (1 << 20)
	m["trace.overhead_ratio"] = overhead
	m["trace.spans"] = float64(tr.len())
	for _, def := range perLayer {
		res.note(def.name, m[def.name], def.unit)
	}
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.note("self_ms."+name, st[name].self/1e6, "ms")
		res.note("count."+name, float64(st[name].count), "count")
	}
	if lookup < 0 {
		res.check("lookup-probe", false, "probe queries missed the table")
	}
	return st
}
