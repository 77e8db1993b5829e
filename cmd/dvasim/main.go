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
//
// The run's parameters resolve as a dvad request's do (a queue size or
// jitter of 0 takes the default). A bad flag value exits 2, a failed run 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"decvec"
	"decvec/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run holds the whole invocation so the deferred cache GC executes on every
// exit path — a mid-run error must not leave the shared store over its cap.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		prog      = fs.String("prog", "ARC2D", "program to simulate: "+strings.Join(decvec.Workloads(), ","))
		arch      = fs.String("arch", "DVA", "architecture: REF, DVA or BYP")
		latency   = fs.Int64("latency", 50, "memory latency in cycles")
		loadQ     = fs.Int("loadq", 256, "AVDQ (vector load queue) slots")
		storeQ    = fs.Int("storeq", 16, "VADQ (vector store queue) slots")
		iq        = fs.Int("iq", 16, "instruction queue slots")
		jitter    = fs.Int64("jitter", 0, "per-access latency jitter in cycles (memory conflicts)")
		infile    = fs.String("i", "", "simulate a binary trace file instead of a program model")
		eventsOut = fs.String("events", "", "write a chrome://tracing event trace to this file ('-' for stdout)")
		jsonOut   = fs.String("metrics-json", "", "write the metrics summary as JSON to this file ('-' for stdout)")
		maxEvents = fs.Int("max-events", 0, "cap the recorded event stream (0 = unlimited)")
	)
	cache := decvec.RegisterCacheFlags(fs, "enforced after the run")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	spec, err := experiments.RunParams{
		Arch: *arch, Latency: *latency, LoadQ: *loadQ, StoreQ: *storeQ, IQ: *iq, Jitter: *jitter,
	}.Resolve()
	if err == nil && *maxEvents < 0 {
		err = fmt.Errorf("-max-events must be >= 0 (0 = unlimited), got %d", *maxEvents)
	}
	if err == nil {
		err = cache.Validate()
	}
	if err != nil {
		fmt.Fprintf(stderr, "dvasim: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dvasim: %v\n", err)
		return 1
	}

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
			return fail(err)
		}
		src, err = decvec.ReadTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		name, desc = src.Name(), "trace file "+*infile
		idealCycles = decvec.IdealCyclesOf(src)
	} else {
		w, err := decvec.LoadWorkload(*prog)
		if err != nil {
			return fail(err)
		}
		name, desc = w.Name(), w.Description()
		idealCycles = w.IdealCycles()
		src = w.Trace(1)
	}

	// Event recording observes the simulation, so a recorded run never comes
	// from the cache.
	var store *decvec.CacheStore
	if rec == nil {
		store = cache.Open(stderr, "dvasim")
	}
	// The store is shared with dvabench and dvad; dvasim-only usage must
	// respect the size cap too, so GC on every exit path from here on.
	if store != nil {
		defer func() {
			if _, err := store.GC(); err != nil {
				fmt.Fprintf(stderr, "dvasim: cache GC: %v\n", err)
			}
		}()
	}
	cfg := spec.Cfg
	var res *decvec.Result
	if store != nil {
		res, err = decvec.RunSourceCached(store, src, string(spec.Arch), cfg, cache.Verify)
	} else {
		res, err = decvec.RunSourceRecorded(src, string(spec.Arch), cfg, rec)
	}
	if err != nil {
		return fail(err)
	}

	if *jsonOut != "" {
		var b []byte
		if store != nil {
			b, err = decvec.MetricsJSONWithCache(res, store.Stats())
		} else {
			b, err = decvec.MetricsJSON(res)
		}
		if err != nil {
			return fail(err)
		}
		if err := writeOutput(stdout, *jsonOut, func(w io.Writer) error {
			_, err := w.Write(append(b, '\n'))
			return err
		}); err != nil {
			return fail(err)
		}
	}
	if *eventsOut != "" {
		if err := writeOutput(stdout, *eventsOut, func(w io.Writer) error {
			return decvec.WriteTraceEvents(w, res, rec)
		}); err != nil {
			return fail(err)
		}
	}
	// Machine-readable output on stdout suppresses the human report.
	if *jsonOut == "-" || *eventsOut == "-" {
		return 0
	}

	fmt.Fprintf(stdout, "%s on %s (%s)\n", name, res.Arch, desc)
	fmt.Fprintf(stdout, "  config:        %s\n", cfg.Label(res.Arch))
	fmt.Fprintf(stdout, "  cycles:        %d (ideal lower bound %d, ratio %.2f)\n",
		res.Cycles, idealCycles, float64(res.Cycles)/float64(idealCycles))
	fmt.Fprintf(stdout, "  instructions:  %d scalar, %d vector (%d vector ops, avg VL %.1f)\n",
		res.Counts.ScalarInsts, res.Counts.VectorInsts, res.Counts.VectorOps, res.Counts.AvgVL())
	fmt.Fprintf(stdout, "  IPC:           %.3f\n", res.IPC())
	fmt.Fprintf(stdout, "  memory:        %d load elems, %d store elems (%d total)\n",
		res.Traffic.LoadElems, res.Traffic.StoreElems, res.Traffic.Total())
	fmt.Fprintf(stdout, "  scalar cache:  %d hits, %d misses\n", res.ScalarCacheHits, res.ScalarCacheMisses)

	fmt.Fprintln(stdout, "  state breakdown:")
	for s := decvec.State(0); s < 8; s++ {
		st := res.States
		fmt.Fprintf(stdout, "    %-16s %10d cycles (%5.1f%%)\n", s, st.Cycles[s], 100*st.Fraction(s))
	}
	if res.AVDQBusy != nil {
		fmt.Fprintf(stdout, "  AVDQ occupancy: mean %.2f, max %d\n", res.AVDQBusy.Mean(), res.AVDQBusy.Max())
	}
	if res.Arch != "REF" {
		fmt.Fprintf(stdout, "  bypasses:      %d (%d elements), store-queue flushes: %d\n",
			res.Bypasses, res.BypassedElems, res.Flushes)
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, indent(decvec.StallTable(res)))
	if len(res.Queues) > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, indent(decvec.QueueTable(res)))
	}
	if rec != nil && rec.Dropped > 0 {
		fmt.Fprintf(stdout, "\n  (event trace truncated: %d events dropped at -max-events %d)\n",
			rec.Dropped, rec.MaxEvents)
	}
	return 0
}

// writeOutput hands write stdout for path "-", else a created file at path.
func writeOutput(stdout io.Writer, path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
