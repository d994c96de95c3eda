package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// probe reads the Go runtime's allocation and CPU counters; the
// difference of two readings is what the code between them cost. One
// probe type serves every layer so that all per-layer allocation and GC
// figures are measured the same way.
type probe struct {
	samples []metrics.Sample
}

// Runtime metrics read by a probe, in sample order.
const (
	mAllocBytes = iota
	mAllocObjects
	mGCCPU
	mTotalCPU
	mIdleCPU
	nProbeMetrics
)

var probeNames = [nProbeMetrics]string{
	mAllocBytes:   "/gc/heap/allocs:bytes",
	mAllocObjects: "/gc/heap/allocs:objects",
	mGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
	mTotalCPU:     "/cpu/classes/total:cpu-seconds",
	mIdleCPU:      "/cpu/classes/idle:cpu-seconds",
}

// heapObjects is the live heap (objects not yet swept included) that the
// heap sampler polls.
const heapObjects = "/memory/classes/heap/objects:bytes"

func newProbe() *probe {
	p := &probe{samples: make([]metrics.Sample, nProbeMetrics)}
	for i, n := range probeNames {
		p.samples[i].Name = n
	}
	return p
}

// reading is one snapshot of the probed counters, or the difference of
// two.
type reading struct {
	allocBytes, allocObjects uint64
	gcCPU, busyCPU           float64
}

func (p *probe) read() reading {
	metrics.Read(p.samples)
	s := p.samples
	return reading{
		allocBytes:   s[mAllocBytes].Value.Uint64(),
		allocObjects: s[mAllocObjects].Value.Uint64(),
		gcCPU:        s[mGCCPU].Value.Float64(),
		busyCPU:      s[mTotalCPU].Value.Float64() - s[mIdleCPU].Value.Float64(),
	}
}

// to returns the counters' growth from b to a: what the code between the
// two readings cost.
func (b reading) to(a reading) reading {
	return reading{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCPU:        a.gcCPU - b.gcCPU,
		busyCPU:      a.busyCPU - b.busyCPU,
	}
}

// gcShare is the share of the busy CPU time the garbage collector used.
func (c reading) gcShare() float64 {
	if c.busyCPU <= 0 {
		return 0
	}
	return c.gcCPU / c.busyCPU
}

// peakRSSMB is the process's resident-set high-water mark in MB since
// the last restartRSSMark (since start before the first), as
// /proc/self/status reports it (VmHWM). Each workload runs in its own
// process, so the mark belongs to that workload.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var v float64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), &v); err == nil {
					return v / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// startRSSPeak returns freed memory to the OS and restarts the
// resident-set high-water mark, so that the next peakRSSMB reading is the
// peak of the work in between, not of earlier work's garbage.
func startRSSPeak() {
	debug.FreeOSMemory()
	restartRSSMark()
}

// restartRSSMark restarts the resident-set high-water mark. Kernels that
// do not support it leave the mark running; peakRSSMB then reports the
// process peak.
func restartRSSMark() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWindow is the length of the windows whose resident-set high-water
// marks rssWindows samples.
const rssWindow = time.Second

// rssWindows samples the resident-set high-water mark of each window of
// a measured section, restarting the mark at every window's start.
type rssWindows struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

func startRSSWindows() *rssWindows {
	r := &rssWindows{stop: make(chan struct{})}
	restartRSSMark()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				if len(r.peaks) == 0 {
					// A section shorter than one window is one window.
					r.peaks = append(r.peaks, peakRSSMB())
				}
				return
			case <-tick.C:
				r.peaks = append(r.peaks, peakRSSMB())
				restartRSSMark()
			}
		}
	}()
	return r
}

// done stops the sampler and returns the window peaks in MB.
func (r *rssWindows) done() []float64 {
	close(r.stop)
	r.wg.Wait()
	return r.peaks
}

// cpuSeconds is the process's user plus system CPU time. Under a
// paravirtualized steal clock it excludes the time the VM's vCPUs were
// descheduled by the host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapSampler polls the live heap every few milliseconds and keeps the
// largest value seen, because the runtime reports no heap high-water mark.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak live heap in MB.
func (h *heapSampler) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
