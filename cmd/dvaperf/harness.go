package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// runSeconds is the length of a timed window unless -seconds says otherwise;
// BENCHMARK.json's run_seconds is the same number, so ab.sh and the
// benchmark's runs measure the same window.
const runSeconds = 20

// sizes fix how much work each workload does. Runs use fullSizes; the
// package test substitutes tinySizes so every workload finishes in moments.
type sizes struct {
	scale float64 // trace scale of every workload (1 = the paper's traces)
	// set-ups per run, at least setupReps and until they have taken
	// setupTime; setup_s is their median
	setupReps int
	setupTime time.Duration
	figures   []string // experiments of a figures-cold pass; nil runs them all
	// sweep-warm grid: how many seeded latencies, and the load- and
	// store-queue sizes
	sweepLats                 int
	sweepLoadQs, sweepStoreQs []int
	sweepSample               int // cells re-simulated in process
	// serve-mix
	stormSize   int // requests per dvadload storm
	serveSample int // responses re-simulated after the window
	// events: memory latencies of the recorded cells
	eventLats []int64
	// per-layer replays: repetitions of each timed replay
	replayReps int
}

var fullSizes = sizes{
	scale:       1,
	setupReps:   5,
	setupTime:   2 * time.Second,
	sweepLats:   1,
	sweepLoadQs: []int{2, 4, 8, 16, 32, 64, 128, 256}, sweepStoreQs: []int{2, 4, 8, 16, 32, 64},
	sweepSample: 64,
	stormSize:   200, serveSample: 50,
	eventLats:  []int64{50},
	replayReps: 3,
}

// options are one workload run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	size    sizes
}

// env is the state one workload run shares with the harness.
type env struct {
	opt options
	rep *ledger
	tmp string  // temporary directory, removed when the run ends
	tr  *tracer // records spans during the traced window only
	log func(format string, args ...any)
}

// setup runs fn at least setupReps times and until the set-ups have taken
// setupTime, and records the median as setup_s: one set-up varies by a
// sixth from the next on a quiet host, so a short one is repeated dozens of
// times. Every set-up starts from a collected heap, so that one set-up's
// garbage does not bill the next. Every set-up but the last is torn down by
// the cleanup fn returns; the last one stays for the run and the caller
// tears it down.
func (e *env) setup(fn func() (cleanup func(), err error)) (cleanup func(), err error) {
	var times []float64
	var spent time.Duration
	for i := 0; i < e.opt.size.setupReps || spent < e.opt.size.setupTime; i++ {
		if cleanup != nil {
			cleanup()
		}
		runtime.GC()
		t0 := time.Now()
		cleanup, err = fn()
		if err != nil {
			if cleanup != nil {
				cleanup()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	e.rep.set("setup_s", median(times), len(times))
	return cleanup, nil
}

// window is what one timed window of a workload delivered.
type window struct {
	lat       []time.Duration // per-operation latency, successful operations only
	rounds    []roundStat     // every round whose operations all succeeded
	attempted int
	failed    int
	mallocs   uint64 // heap allocations of the successful rounds
	bytes     uint64 // heap bytes allocated by the successful rounds
}

// roundStat is what one round cost.
type roundStat struct {
	cells int64
	wall  time.Duration
	cpu   time.Duration
}

// timed runs the workload's window, body(d) running rounds for about d.
// An untraced run records the end-to-end metrics over the whole window. A
// traced run splits it: an untraced half records the operation times and a
// traced half records spans, and the difference of their median operation
// times is the tracing overhead.
func (e *env) timed(body func(d time.Duration) (*window, error)) error {
	// The set-ups' garbage would otherwise stay resident for as long as the
	// scavenger takes to return it, a different time in every run.
	debug.FreeOSMemory()
	if !e.opt.trace {
		rss := sampleRSS()
		w, err := body(e.opt.seconds)
		mb, n, rerr := rss()
		if err != nil {
			return err
		}
		if rerr != nil {
			return fmt.Errorf("resident set size: %w", rerr)
		}
		if err := e.complete(w); err != nil {
			return err
		}
		var cells int64
		for _, r := range w.rounds {
			cells += r.cells
		}
		e.rep.set("rss_mb", mb, n)
		e.rep.set("allocs_per_cell", float64(w.mallocs)/float64(cells), int(cells))
		e.rep.set("alloc_kb_per_cell", float64(w.bytes)/1024/float64(cells), int(cells))
		return nil
	}
	half := e.opt.seconds / 2
	base, err := body(half)
	if err != nil {
		return err
	}
	if err := e.complete(base); err != nil {
		return err
	}
	e.recordTimes(base)
	e.tr.on.Store(true)
	w, err := body(half)
	e.tr.on.Store(false)
	if err != nil {
		return err
	}
	e.count(w)
	b, t := durPct(base.lat, 50, time.Millisecond), durPct(w.lat, 50, time.Millisecond)
	if b > 0 {
		e.rep.set("trace_overhead_pct", 100*(t/b-1), len(w.lat))
	}
	spans := e.tr.closed()
	shares, ops := layerShares(spans)
	e.rep.set("unattributed_pct", shares[rootSpan], ops)
	for _, l := range []string{"experiments", "core", "sweep", "http", "server", "report"} {
		e.rep.set(l+".self_pct", shares[l], ops)
	}
	e.rep.set("core.sims", countPerOp(spans, "core"), ops)
	return nil
}

func (e *env) count(w *window) {
	e.rep.attempted += w.attempted
	e.rep.failed += w.failed
}

// complete counts a window's operations and fails when it finished no
// round.
func (e *env) complete(w *window) error {
	e.count(w)
	if len(w.rounds) == 0 {
		return fmt.Errorf("window completed no round (%d operations attempted, %d failed)", w.attempted, w.failed)
	}
	return nil
}

// recordTimes records the op.* metrics of a window. The host's speed comes
// and goes in bursts of a few seconds, which a sum over many operations
// absorbs and a median over short ones rides out: so latency is the median
// operation, and throughput and CPU time are the medians over rounds, each
// round being the same work.
func (e *env) recordTimes(w *window) {
	rates := make([]float64, len(w.rounds))
	cpus := make([]float64, len(w.rounds))
	for i, r := range w.rounds {
		rates[i] = float64(r.cells) / r.wall.Seconds()
		cpus[i] = float64(r.cpu) / float64(time.Millisecond) / float64(r.cells)
	}
	e.rep.set("op.p50_ms", durPct(w.lat, 50, time.Millisecond), len(w.lat))
	e.rep.set("op.cells_per_s", median(rates), len(rates))
	e.rep.set("op.cpu_ms_per_cell", median(cpus), len(cpus))
}

// loop runs a closed loop in rounds. Round r runs operations
// r·round … r·round+round−1, each client taking the next one when its last
// has finished; prep and check run before and after every round, untimed.
// No round starts once the window has elapsed, so every window runs whole
// rounds.
type loop struct {
	tr      *tracer
	clients int
	round   int // operations per round; 0 means 1
	prep    func() error
	check   func() error
	op      func(ctx context.Context, i int) (cells int64, err error)
	log     func(format string, args ...any)
}

func (l loop) run(d time.Duration) *window {
	w := &window{}
	size := max(l.round, 1)
	deadline := time.Now().Add(d)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if l.prep != nil {
			if err := l.prep(); err != nil {
				w.attempted += size
				w.failed += size
				l.log("round %d: %v", r, err)
				continue
			}
		}
		u0 := snapshot()
		lat, cells, failed := l.runRound(r*size, size)
		u := snapshot().sub(u0)
		if failed == 0 && l.check != nil {
			if err := l.check(); err != nil {
				l.log("round %d: %v", r, err)
				failed = size
			}
		}
		w.attempted += size
		w.failed += failed
		if failed > 0 {
			continue
		}
		w.lat = append(w.lat, lat...)
		w.rounds = append(w.rounds, roundStat{cells: cells, wall: u.wall, cpu: u.cpu})
		w.mallocs += u.mallocs
		w.bytes += u.bytes
	}
	return w
}

// runRound runs operations first … first+n−1 over the clients and returns
// the latencies of the successful ones, their cells, and how many failed.
func (l loop) runRound(first, n int) (lat []time.Duration, cells int64, failed int) {
	var mu sync.Mutex
	next := first
	var wg sync.WaitGroup
	for c := 0; c < max(l.clients, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= first+n {
					return
				}
				s := l.tr.begin(rootSpan, spanRef{})
				t0 := time.Now()
				k, err := l.op(withSpan(context.Background(), s), i)
				dt := time.Since(t0)
				l.tr.end(s)
				mu.Lock()
				if err != nil {
					failed++
					if failed <= 3 {
						l.log("op %d failed: %v", i, err)
					}
				} else {
					lat = append(lat, dt)
					cells += k
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, cells, failed
}

// logf writes a progress line to standard error.
func logf(workload string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dvaperf: %s: %s\n", workload, fmt.Sprintf(format, args...))
	}
}
