// Command dvasim runs one benchmark program on one architecture and prints
// detailed statistics: cycle counts, the (FU2,FU1,LD) state breakdown,
// memory traffic, queue occupancies and per-unit stall attribution.
//
// Usage:
//
//	dvasim -prog BDNA -arch DVA -latency 50 [-loadq 256] [-storeq 16] [-iq 16]
//
// Observability modes:
//
//	dvasim -prog BDNA -metrics-json metrics.json   # machine-readable summary
//	dvasim -prog BDNA -metrics-json -              # ... on stdout (quiet)
//	dvasim -prog BDNA -events trace.json           # chrome://tracing event file
//
// Results persist in the content-addressed cache shared with dvabench and
// dvad (default $XDG_CACHE_HOME/decvec; -cache=off disables, -cache-dir
// relocates, -cache-max-mb bounds it — GC'd at the end of every run, error
// paths included — and -cache-verify audits hits by re-simulation).
// Event-recording runs always simulate, since the event stream is not
// cached.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"decvec"
	"decvec/internal/sim"
)

// errQuiet marks machine-readable-output runs that suppress the human
// report; it is not a failure.
var errQuiet = errors.New("quiet")

// usageError distinguishes bad invocations (exit 2, matching dvabench and
// dvad) from runtime failures (exit 1).
type usageError struct{ error }

func main() {
	err := run()
	if err == nil || err == errQuiet {
		return
	}
	fmt.Fprintf(os.Stderr, "dvasim: %v\n", err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run holds the whole invocation so the deferred cache GC executes on every
// exit path — a mid-run error must not leave the shared store over its cap
// (os.Exit skips defers, so main only decides the exit code).
func run() error {
	var (
		prog      = flag.String("prog", "ARC2D", "program to simulate: "+strings.Join(decvec.Workloads(), ","))
		arch      = flag.String("arch", "DVA", "architecture: REF, DVA or BYP")
		latency   = flag.Int64("latency", 50, "memory latency in cycles")
		loadQ     = flag.Int("loadq", 256, "AVDQ (vector load queue) slots")
		storeQ    = flag.Int("storeq", 16, "VADQ (vector store queue) slots")
		iq        = flag.Int("iq", 16, "instruction queue slots")
		jitter    = flag.Int64("jitter", 0, "per-access latency jitter in cycles (memory conflicts)")
		infile    = flag.String("i", "", "simulate a binary trace file instead of a program model")
		eventsOut = flag.String("events", "", "write a chrome://tracing event trace to this file ('-' for stdout)")
		jsonOut   = flag.String("metrics-json", "", "write the metrics summary as JSON to this file ('-' for stdout)")
		maxEvents = flag.Int("max-events", 0, "cap the recorded event stream (0 = unlimited)")
	)
	cache := decvec.RegisterCacheFlags("enforced after the run")
	flag.Parse()
	if err := cache.Validate(); err != nil {
		return usageError{err}
	}

	cfg := decvec.DefaultConfig(*latency)
	cfg.AVDQSize = *loadQ
	cfg.VADQSize = *storeQ
	cfg.IQSize = *iq
	cfg.LatencyJitter = *jitter
	archName, bypass, err := sim.ParseArch(*arch)
	if err != nil {
		return usageError{err}
	}
	cfg.Bypass = bypass

	// Recording is only paid for when an event trace was requested; the
	// metrics summary comes from the Result itself.
	var rec *decvec.Recorder
	if *eventsOut != "" {
		rec = decvec.NewRecorder()
		rec.MaxEvents = *maxEvents
	}

	var src decvec.TraceSource
	var name, desc string
	var idealCycles int64
	if *infile != "" {
		f, err := os.Open(*infile)
		if err != nil {
			return err
		}
		src, err = decvec.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		name, desc = src.Name(), "trace file "+*infile
		idealCycles = decvec.IdealCyclesOf(src)
	} else {
		w, err := decvec.LoadWorkload(*prog)
		if err != nil {
			return err
		}
		name, desc = w.Name(), w.Description()
		idealCycles = w.IdealCycles()
		src = w.Trace(1)
	}

	// Event recording observes the simulation, so a recorded run never comes
	// from the cache.
	var store *decvec.CacheStore
	if rec == nil {
		store = cache.Open("dvasim")
	}
	// The store is shared with dvabench and dvad; dvasim-only usage must
	// respect the size cap too, so GC on every exit path from here on.
	if store != nil {
		defer func() {
			if _, err := store.GC(); err != nil {
				fmt.Fprintf(os.Stderr, "dvasim: cache GC: %v\n", err)
			}
		}()
	}
	var res *decvec.Result
	if store != nil {
		res, err = decvec.RunSourceCached(store, src, archName, cfg, cache.Verify)
	} else {
		res, err = decvec.RunSourceRecorded(src, archName, cfg, rec)
	}
	if err != nil {
		return err
	}

	if *jsonOut != "" {
		var b []byte
		if store != nil {
			b, err = decvec.MetricsJSONWithCache(res, store.Stats())
		} else {
			b, err = decvec.MetricsJSON(res)
		}
		if err != nil {
			return err
		}
		if err := writeOutput(*jsonOut, append(b, '\n')); err != nil {
			return err
		}
	}
	if *eventsOut != "" {
		if err := writeEvents(*eventsOut, res, rec); err != nil {
			return err
		}
	}
	// Machine-readable output on stdout suppresses the human report.
	if *jsonOut == "-" || *eventsOut == "-" {
		return errQuiet
	}

	fmt.Printf("%s on %s (%s)\n", name, res.Arch, desc)
	fmt.Printf("  config:        %s\n", cfg.Label(res.Arch))
	fmt.Printf("  cycles:        %d (ideal lower bound %d, ratio %.2f)\n",
		res.Cycles, idealCycles, float64(res.Cycles)/float64(idealCycles))
	fmt.Printf("  instructions:  %d scalar, %d vector (%d vector ops, avg VL %.1f)\n",
		res.Counts.ScalarInsts, res.Counts.VectorInsts, res.Counts.VectorOps, res.Counts.AvgVL())
	fmt.Printf("  IPC:           %.3f\n", res.IPC())
	fmt.Printf("  memory:        %d load elems, %d store elems (%d total)\n",
		res.Traffic.LoadElems, res.Traffic.StoreElems, res.Traffic.Total())
	fmt.Printf("  scalar cache:  %d hits, %d misses\n", res.ScalarCacheHits, res.ScalarCacheMisses)

	fmt.Println("  state breakdown:")
	for s := decvec.State(0); s < 8; s++ {
		st := res.States
		fmt.Printf("    %-16s %10d cycles (%5.1f%%)\n", s, st.Cycles[s], 100*st.Fraction(s))
	}
	if res.AVDQBusy != nil {
		fmt.Printf("  AVDQ occupancy: mean %.2f, max %d\n", res.AVDQBusy.Mean(), res.AVDQBusy.Max())
	}
	if res.Arch != "REF" {
		fmt.Printf("  bypasses:      %d (%d elements), store-queue flushes: %d\n",
			res.Bypasses, res.BypassedElems, res.Flushes)
	}
	fmt.Println()
	fmt.Print(indent(decvec.StallTable(res)))
	if len(res.Queues) > 0 {
		fmt.Println()
		fmt.Print(indent(decvec.QueueTable(res)))
	}
	if rec != nil && rec.Dropped > 0 {
		fmt.Printf("\n  (event trace truncated: %d events dropped at -max-events %d)\n",
			rec.Dropped, rec.MaxEvents)
	}
	return nil
}

func writeEvents(path string, res *decvec.Result, rec *decvec.Recorder) error {
	if path == "-" {
		return decvec.WriteTraceEvents(os.Stdout, res, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := decvec.WriteTraceEvents(f, res, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeOutput(path string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
