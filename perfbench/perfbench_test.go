package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Workload-specific metrics each run must print, by workload and mode.
var namedMetrics = map[string][2][]string{
	"compile-grid": {
		{"setup_wall_s", "error_ratio", "peak_rss_mb", "cells_per_s"},
		{"expt.select_ms_p50", "expt.select_ms_max", "microbench.cell_us_p50", "microbench.alloc_kb_per_cell",
			"microbench.allocs_per_cell", "runner.cells", "runner.cache_hit_ratio", "go.gc_cpu_share",
			"store.save_verify_ms", "trace.overhead_ratio"},
	},
	"alltoall-256": {
		{"setup_wall_s", "error_ratio", "peak_rss_mb", "select_s"},
		{"microbench.alg_s.basic_linear", "microbench.alg_s.pairwise", "microbench.alg_s.bruck",
			"microbench.alg_s.linear_sync", "microbench.alloc_gb", "go.heap_peak_mb", "go.gc_cpu_share",
			"trace.overhead_ratio"},
	},
	"serve-mix": {
		{"setup_wall_s", "error_ratio", "peak_rss_mb", "hot_rps", "hot_p50_us", "hot_p99_us",
			"mixed_rps", "mixed_p50_us", "mixed_p99_us"},
		{"store.lookup_ns", "serve.handler_us", "serve.handler_allocs", "http.loopback_us", "model.select_us",
			"serve.cold_ms", "serve.refine_drain_s", "store.withcell_us", "serve.promote_landed_ratio",
			"serve.source_share.table", "serve.source_share.model", "serve.source_share.cold_cache",
			"serve.source_share.computed", "feedback.records_ingested", "feedback.observe_shed",
			"feedback.recompiles", "go.gc_cpu_share.hot", "go.gc_cpu_share.mixed", "trace.overhead_ratio"},
	},
}

// runSmall runs one workload at reduced size and checks its output: every
// check passes, nothing failed, and every contract and named metric is
// printed. It returns the run's digest.
func runSmall(t *testing.T, workload string, trace bool) string {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.4, trace: trace, small: true,
		workdir: t.TempDir(), workers: 2}
	res, err := workloads[workload](context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, c := range res.checks {
		if !c.ok {
			t.Errorf("%s: check %s failed: %s", workload, c.name, c.detail)
		}
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed", workload, res.failed, res.attempted)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := emit(f, o, res); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct bool                       `json:"correct"`
		Failed  int                        `json:"failed"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	defs := endToEnd
	mode := 0
	if trace {
		defs, mode = perLayer, 1
	}
	if !last.Correct || last.Failed != 0 || len(last.Metrics) != len(defs) {
		t.Errorf("%s: result line %s", workload, lines[len(lines)-1])
	}
	for _, name := range namedMetrics[workload][mode] {
		if !bytes.Contains(out, []byte("metric "+workload+" "+name+" ")) {
			t.Errorf("%s: metric %s not printed", workload, name)
		}
	}
	if trace {
		if _, err := os.Stat(tracePath(o)); err != nil {
			t.Errorf("%s: no trace written: %v", workload, err)
		}
	}
	if res.digest == "" {
		t.Errorf("%s: no digest", workload)
	}
	return res.digest
}

func TestWorkloadsSmall(t *testing.T) {
	for _, w := range []string{"compile-grid", "alltoall-256", "serve-mix"} {
		t.Run(w, func(t *testing.T) {
			first := runSmall(t, w, false)
			if again := runSmall(t, w, false); again != first {
				t.Errorf("digests differ across runs: %s vs %s", first, again)
			}
			if traced := runSmall(t, w, true); traced != first {
				t.Errorf("traced digest %s differs from untraced %s", traced, first)
			}
		})
	}
}

func TestCovered(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 60, end: 70}, {start: 90, end: 150}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %v, want 50", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Fatalf("max = %v", got)
	}
}

// TestBenchmarkJSON checks that the metrics this program prints are the
// ones BENCHMARK.json declares, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.declared) != len(set.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program prints %d", len(set.declared), len(set.printed))
		}
		for i, d := range set.declared {
			if p := set.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("metric %d: declared %s [%s], printed %s [%s]", i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}
