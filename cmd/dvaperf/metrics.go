package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef is one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; the
// package test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // allowed regression as a share of the parent's median; 0 for per-layer metrics
}

// endToEnd are the host-resource metrics a user of the simulator sees,
// reported by every workload's untraced run, with the set-up time. Their
// runs agree within a twentieth (allocations) or a tenth (memory). Set-up
// time has the largest bound, a quarter: three of the four set-ups take
// under 0.1 s, where a tenth is a few milliseconds of host noise.
// Operation latency, throughput and CPU time drift with the host by more
// than a tenth between runs (README.md), so they are the op.* metrics of the
// traced run, compared in interleaved pairs by ab.sh.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_cell", "allocs", "lower", 0.05},
	{"alloc_kb_per_cell", "KiB", "lower", 0.05},
	{"rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run. The op.* times
// come from its untraced half and the other times from a replay that runs
// on every workload; what the traced half yields is a share, a ratio or a
// count per operation, which reads 0 on a workload that never reaches the
// layer.
var perLayer = []metricDef{
	// the operation, as the workload's client sees it
	{"op.p50_ms", "ms", "lower", 0},
	{"op.cells_per_s", "cells/s", "higher", 0},
	{"op.cpu_ms_per_cell", "ms", "lower", 0},
	// replayed layer functions
	{"tracegen.ms", "ms", "lower", 0},
	{"tracegen.ns_per_inst", "ns", "lower", 0},
	{"trace.hash_ms", "ms", "lower", 0},
	{"ref.simcycles_per_s", "cycles/s", "higher", 0},
	{"dva.simcycles_per_s", "cycles/s", "higher", 0},
	{"byp.simcycles_per_s", "cycles/s", "higher", 0},
	{"ooo.simcycles_per_s", "cycles/s", "higher", 0},
	{"dva.recorded.simcycles_per_s", "cycles/s", "higher", 0},
	{"recorder.run_ms_p50", "ms", "lower", 0},
	{"recorder.events_per_run", "events", "lower", 0},
	{"ideal.ms", "ms", "lower", 0},
	{"codec.encode_us_p50", "us", "lower", 0},
	{"codec.decode_us_p50", "us", "lower", 0},
	{"simcache.put_us_p50", "us", "lower", 0},
	{"simcache.get_us_p50", "us", "lower", 0},
	{"sweep.key_ns_per_cell", "ns", "lower", 0},
	{"server.metrics_json_us_p50", "us", "lower", 0},
	{"report.tef_ms_p50", "ms", "lower", 0},
	{"report.tef_mb_per_s", "MB/s", "higher", 0},
	// self time of each layer's spans, as a share of operation time
	{"unattributed_pct", "%", "lower", 0},
	{"experiments.self_pct", "%", "lower", 0},
	{"core.self_pct", "%", "lower", 0},
	{"sweep.self_pct", "%", "lower", 0},
	{"http.self_pct", "%", "lower", 0},
	{"server.self_pct", "%", "lower", 0},
	{"report.self_pct", "%", "lower", 0},
	{"core.sims", "sims/op", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
	// counters of the traced window
	{"simcache.writes", "writes/op", "lower", 0},
	{"simcache.hit_ratio", "ratio", "higher", 0},
	{"sweep.chunks", "chunks/op", "lower", 0},
	{"sweep.retry_ratio", "ratio", "lower", 0},
	{"sweep.resharded", "cells/op", "lower", 0},
	{"server.coalesce_ratio", "ratio", "higher", 0},
	{"server.shed_ratio", "ratio", "lower", 0},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// check tallies one kind of correctness check over a run.
type check struct {
	passed, failed int
	first          string // the first failure's explanation
}

// ledger collects one workload run's metrics, operation counts and checks.
type ledger struct {
	workload  string
	values    map[string]value
	attempted int
	failed    int

	mu     sync.Mutex // guards checks, which concurrent operations record
	checks map[string]*check
}

func newLedger(workload string) *ledger {
	return &ledger{workload: workload, values: map[string]value{}, checks: map[string]*check{}}
}

func (r *ledger) set(name string, v float64, n int) { r.values[name] = value{v, n} }

// check records one outcome of the named check; a non-nil err is a failure.
func (r *ledger) check(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.checks[name]
	if c == nil {
		c = &check{}
		r.checks[name] = c
	}
	if err == nil {
		c.passed++
		return
	}
	c.failed++
	if c.first == "" {
		c.first = err.Error()
	}
}

// correct reports whether every operation and every check succeeded.
func (r *ledger) correct() bool {
	if r.failed > 0 || r.attempted == 0 {
		return false
	}
	for _, c := range r.checks {
		if c.failed > 0 {
			return false
		}
	}
	return true
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// durPct is percentile over durations, in the given unit.
func durPct(ds []time.Duration, p float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return percentile(xs, p)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// processStart anchors the wall clock of usage snapshots.
var processStart = time.Now()

// usage is a snapshot of the process's cumulative resource counters, or
// the difference of two snapshots.
type usage struct {
	wall    time.Duration // since processStart
	cpu     time.Duration // user plus system time
	mallocs uint64
	bytes   uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Since(processStart),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// sub returns the counters accumulated from b to a.
func (a usage) sub(b usage) usage {
	return usage{a.wall - b.wall, a.cpu - b.cpu, a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// sampleRSS samples the resident set size every 50 ms until the returned
// function is called; that function returns the median of the later half
// of the samples in MiB and their number. The earlier half is left out: a
// window starts after debug.FreeOSMemory, and the heap takes seconds to grow
// back to its steady size, a different number of seconds in every run.
func sampleRSS() func() (float64, int, error) {
	done := make(chan struct{})
	var (
		wg      sync.WaitGroup
		samples []float64
		err     error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			var mb float64
			if mb, err = rssMiB(); err != nil {
				return
			}
			samples = append(samples, mb)
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, int, error) {
		close(done)
		wg.Wait()
		later := samples[len(samples)/2:]
		return median(later), len(later), err
	}
}

// rssMiB reads the process's resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
