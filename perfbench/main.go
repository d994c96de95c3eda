// Command perfbench is the repository benchmark: it runs one seeded
// workload against the selection stack, checks the workload's outputs and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) time the calls into each layer from this package's own code
// and report the per-layer metrics. README.md maps every metric to the
// layer it measures and the end-to-end metric it should move.
//
// Usage:
//
//	perfbench -workload compile-grid|alltoall-256|serve-mix -seed N -seconds S -trace 0|1 [-workdir DIR]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Names and units of the end-to-end metrics every workload reports with
// -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// Names and units of the per-layer metrics every workload reports with
// -trace 1.
var perLayer = []metricDef{
	{"expt.select_ms_p50", "ms"},
	{"expt.self_ms", "ms"},
	{"microbench.cell_us_p50", "us"},
	{"microbench.self_ms", "ms"},
	{"microbench.alloc_kb_per_cell", "KB"},
	{"microbench.allocs_per_cell", "count"},
	{"runner.cells", "count"},
	{"runner.cache_hit_ratio", "ratio"},
	{"store.self_ms", "ms"},
	{"store.lookup_ns", "ns"},
	{"go.gc_cpu_share", "ratio"},
	{"go.heap_peak_mb", "MB"},
	{"go.alloc_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every workload to a few seconds of work for the
	// package tests.
	small bool
	// workdir holds temporary files and the written-out trace.
	workdir string
	// workers is the runner pool size and the client connection count.
	workers int
}

// result collects what one workload run measured and checked.
type result struct {
	attempted, failed int
	checks            []check
	metrics           map[string]float64 // contract metrics (end-to-end or per-layer)
	report            []reportLine       // workload-specific named metrics, printed as text
	digest            string
}

type check struct {
	name   string
	ok     bool
	detail string
}

type reportLine struct {
	name  string
	value float64
	unit  string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// check records an output check; a failed check also counts as a failed
// operation.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	r.attempted++
	if !ok {
		r.failed++
	}
}

// note records a workload-specific metric for the text report.
func (r *result) note(name string, value float64, unit string) {
	r.report = append(r.report, reportLine{name, value, unit})
}

var workloads = map[string]func(context.Context, options) (*result, error){
	"compile-grid": runCompileGrid,
	"alltoall-256": runAlltoall,
	"serve-mix":    runServeMix,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: compile-grid, alltoall-256 or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", "", "directory for temporary files and traces (default: a new temporary directory)")
	flag.Parse()
	o.trace = traceFlag != 0
	o.workers = runtime.NumCPU()

	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.workdir == "" {
		d, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		o.workdir = d
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, o, res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// emit prints the text report and the final JSON line. Every contract
// metric of the run's mode must be present and finite.
func emit(w *os.File, o options, res *result) error {
	correct := res.failed == 0
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "check %s %s %s\n", c.name, status, c.detail)
	}
	for _, l := range res.report {
		fmt.Fprintf(w, "metric %s %s %s %s\n", o.workload, l.name, fmtFloat(l.value), l.unit)
	}
	if res.digest != "" {
		fmt.Fprintf(w, "digest %s %s\n", o.workload, res.digest)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite (%v)", o.workload, d.name, v)
		}
		out[d.name] = value{v, d.unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 3

// setupTimes is the median set-up time on both clocks, and the process's
// resident-set high-water mark when set-up ended.
type setupTimes struct{ cpu, wall, rssMB float64 }

// timeSetups runs setup setupRepeats times and returns the median time.
// Each repetition returns a release function for the state it built;
// every repetition but the last is released before the next one starts,
// so the run measures with the last one's state.
func timeSetups(setup func(i int) (func(), error)) (setupTimes, error) {
	var cpu, wall []float64
	for i := 0; i < setupRepeats; i++ {
		w := startWatch()
		release, err := setup(i)
		if err != nil {
			return setupTimes{}, err
		}
		ws, cs := w.elapsed()
		wall = append(wall, ws)
		cpu = append(cpu, cs)
		if i < setupRepeats-1 && release != nil {
			release()
		}
	}
	return setupTimes{cpu: median(cpu), wall: median(wall), rssMB: peakRSSMB()}, nil
}

// stopwatch reads the wall clock and the process CPU clock together.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// elapsed returns the wall and CPU seconds since the watch started.
func (s stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), cpuSeconds() - s.cpu
}

// median returns the middle value (mean of the middle two).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tracePath is where a traced run writes its spans.
func tracePath(o options) string {
	return filepath.Join(o.workdir, "trace-"+o.workload+".tsv")
}

// fillEndToEnd sets the end-to-end metrics every workload shares:
// rssMB holds the resident-set peaks of the measured operations (or
// windows), cpuPerOpMs is the process CPU time per operation, latMs the
// per-operation latency sample in milliseconds.
func fillEndToEnd(res *result, setup setupTimes, peaks []float64, cpuPerOpMs float64, latMs []float64) {
	// The mean, not the median: an operation's peak lands high or low
	// depending on where garbage collections fall, and the median of a
	// handful of such values jumps between the two.
	rssMB := 0.0
	for _, p := range peaks {
		rssMB += p / float64(len(peaks))
	}
	res.metrics["setup_s"] = setup.cpu
	res.metrics["ok_ratio"] = 1 - float64(res.failed)/float64(max(res.attempted, 1))
	res.metrics["peak_rss_mb"] = rssMB
	res.metrics["cpu_ms_per_op"] = cpuPerOpMs
	res.metrics["p50_ms"] = quantile(latMs, 0.50)
	res.metrics["p90_ms"] = quantile(latMs, 0.90)
	res.note("p99_ms", quantile(latMs, 0.99), "ms")
	res.note("setup_cpu_s", setup.cpu, "s")
	res.note("setup_wall_s", setup.wall, "s")
	res.note("error_ratio", 1-res.metrics["ok_ratio"], "ratio")
	res.note("peak_rss_mb", res.metrics["peak_rss_mb"], "MB")
	res.note("setup_peak_rss_mb", setup.rssMB, "MB")
	res.note("measured_peak_rss_mb", quantile(peaks, 1), "MB")
	res.note("latency_samples", float64(len(latMs)), "count")
}
