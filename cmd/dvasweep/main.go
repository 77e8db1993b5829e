// Command dvasweep runs a parameter sweep across dvad workers — or
// in-process when none are given — and merges the results in plan order.
//
// Usage:
//
//	dvasweep [-grid grid.json | -progs BDNA,OCEAN -archs REF,DVA
//	          -latencies 1,50,100 -loadqs 0 -storeqs 0]
//	         [-workers http://host1:8382,http://host2:8382]
//	         [-scale 1.0] [-cache-dir DIR] [-chunk 128] [-inflight 2]
//	         [-retries 4] [-backoff 100ms] [-req-timeout 0]
//	         [-out results.bin] [-digest] [-json] [-quiet]
//	         [-assert-no-reshard]
//
// The grid comes from a JSON spec file (-grid; the decvec.SweepGridSpec
// schema) or from the dimension flags; empty dimensions take the paper
// defaults. Cells shard across the workers by simcache key prefix, so a
// repeat sweep lands each cell on the worker whose disk cache already
// holds it; if a worker dies mid-sweep its unfinished cells re-shard
// across the survivors.
//
// -out writes every result's canonical binary encoding, concatenated in
// plan order; -digest prints the SHA-256 of that stream — two runs of the
// same grid print the same digest whatever the worker topology, which is
// the byte-identity contract CI checks. -assert-no-reshard exits nonzero
// if any cell had to move or any worker died (the healthy-fleet CI
// contract).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"decvec"
)

func main() {
	// The process ends with run, so the signal registration is never undone.
	ctx, _ := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run holds the whole invocation so that the in-process store's GC, which
// enforces its size cap, runs on every exit path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvasweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gridFile  = fs.String("grid", "", "JSON grid spec file (mutually exclusive with the dimension flags)")
		progs     = fs.String("progs", "", "comma-separated program names (default: the six simulated programs)")
		archs     = fs.String("archs", "", "comma-separated architectures: REF, DVA, BYP (default REF,DVA)")
		latencies = fs.String("latencies", "", "comma-separated memory latencies (default: the Figure 3-5 sweep)")
		loadqs    = fs.String("loadqs", "", "comma-separated load-queue sizes (0 = architecture default)")
		storeqs   = fs.String("storeqs", "", "comma-separated store-queue sizes (0 = architecture default)")

		workers  = fs.String("workers", "", "comma-separated dvad base URLs; empty runs the sweep in-process")
		scale    = fs.Float64("scale", 1.0, "trace scale factor (must match the workers' -scale for cache affinity)")
		cacheDir = fs.String("cache-dir", "", "persistent result cache directory for the in-process fallback")
		chunk    = fs.Int("chunk", 0, "cells per worker dispatch (0 = 128, or one chunk for in-process runs)")
		inflight = fs.Int("inflight", 0, "concurrent chunks per worker (0 = 2)")
		retries  = fs.Int("retries", 0, "chunk retries before a worker is declared down (0 = 4)")
		backoff  = fs.Duration("backoff", 0, "first retry delay, doubling per retry (0 = 100ms)")
		reqTO    = fs.Duration("req-timeout", 0, "worker-side per-chunk timeout to request (0 = worker default)")

		outFile  = fs.String("out", "", "write concatenated canonical results (plan order) to this file")
		digest   = fs.Bool("digest", false, "print the SHA-256 of the canonical result stream")
		asJSON   = fs.Bool("json", false, "print the sweep summary as JSON instead of tables")
		quiet    = fs.Bool("quiet", false, "suppress the sweep summary and progress")
		noReshrd = fs.Bool("assert-no-reshard", false, "exit nonzero if any cell was re-sharded or any worker died")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "dvasweep: %v\n", err)
		return 2
	}
	if err := decvec.CheckScale(*scale); err != nil {
		return usage(err)
	}
	if *chunk < 0 || *inflight < 0 || *retries < 0 || *backoff < 0 || *reqTO < 0 {
		return usage(errors.New("-chunk, -inflight, -retries, -backoff and -req-timeout must be >= 0 (0 = the default)"))
	}
	spec, err := gridSpec(*gridFile, *progs, *archs, *latencies, *loadqs, *storeqs)
	if err != nil {
		return usage(err)
	}
	plan, err := decvec.NewSweepPlan(spec)
	if err != nil {
		return usage(err)
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dvasweep: %v\n", err)
		return 1
	}

	var execs []decvec.SweepExecutor
	chunkSize := *chunk
	if *workers == "" {
		// In-process fallback: one local executor; a single chunk keeps
		// RunBatch's global trace-grouping unless the user asked otherwise.
		suite := decvec.NewSuite(*scale)
		if *cacheDir != "" {
			store, err := decvec.OpenCache(*cacheDir, decvec.CacheOptions{})
			if err != nil {
				fmt.Fprintf(stderr, "dvasweep: %v; sweeping without the disk tier\n", err)
			} else {
				suite.Disk = store
				defer func() {
					if _, err := store.GC(); err != nil {
						fmt.Fprintf(stderr, "dvasweep: cache GC: %v\n", err)
					}
				}()
			}
		}
		execs = append(execs, decvec.LocalExecutor("local", suite))
		if chunkSize <= 0 {
			chunkSize = plan.Points()
		}
	} else {
		opts := decvec.RemoteExecutorOptions{
			Client:    &http.Client{},
			Retries:   *retries,
			Backoff:   *backoff,
			TimeoutMs: reqTO.Milliseconds(),
		}
		for _, u := range splitList(*workers) {
			execs = append(execs, decvec.RemoteExecutor(u, opts))
		}
		if len(execs) == 0 {
			return usage(errors.New("-workers has no usable URLs"))
		}
	}

	var progress func(done, total int)
	if !*quiet {
		fmt.Fprintf(stderr, "dvasweep: %d cells across %d worker(s)\n", plan.Points(), len(execs))
		progress = progressPrinter(stderr, plan.Points())
	}
	start := time.Now()
	results, st, sweepErr := decvec.RunSweep(ctx, plan, execs, decvec.SweepOptions{
		Scale:     *scale,
		ChunkSize: chunkSize,
		Inflight:  *inflight,
		Progress:  progress,
	})
	wall := time.Since(start)

	// Canonical output stream: every completed result in plan order.
	// Errors below are I/O on our side, never sweep state.
	h := sha256.New()
	var sinks []io.Writer
	if *digest {
		sinks = append(sinks, h)
	}
	var out *os.File
	if *outFile != "" {
		if out, err = os.Create(*outFile); err != nil {
			return fail(err)
		}
		defer out.Close() // error paths; the success path checks Close below
		sinks = append(sinks, out)
	}
	sink := io.MultiWriter(sinks...)
	for i, res := range results {
		if res == nil || len(sinks) == 0 {
			continue
		}
		if err := decvec.EncodeResult(sink, res); err != nil {
			return fail(fmt.Errorf("encoding cell %d: %w", i, err))
		}
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return fail(err)
		}
	}

	if !*quiet {
		if *asJSON {
			b, err := decvec.SweepStatsJSON(st)
			if err == nil {
				fmt.Fprintln(stdout, string(b))
			}
		} else {
			fmt.Fprint(stdout, decvec.SweepTable(st))
		}
		fmt.Fprintf(stderr, "dvasweep: %d/%d cells in %s\n", st.Completed, st.Points, wall.Round(time.Millisecond))
	}
	if *digest {
		fmt.Fprintf(stdout, "sha256:%x\n", h.Sum(nil))
	}

	if sweepErr != nil {
		return fail(sweepErr)
	}
	if *noReshrd {
		if st.Resharded > 0 {
			return fail(fmt.Errorf("FAIL: %d cells re-sharded", st.Resharded))
		}
		for _, w := range st.Workers {
			if w.Failed {
				return fail(fmt.Errorf("FAIL: worker %s died (%s)", w.Name, w.LastError))
			}
		}
	}
	return 0
}

// gridSpec builds the plan spec from the -grid file or the dimension
// flags; mixing the two is an error, so a script can never half-override a
// file.
func gridSpec(file, progs, archs, latencies, loadqs, storeqs string) (decvec.SweepGridSpec, error) {
	var spec decvec.SweepGridSpec
	if file != "" {
		if progs+archs+latencies+loadqs+storeqs != "" {
			return spec, fmt.Errorf("-grid is mutually exclusive with the dimension flags")
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return spec, fmt.Errorf("parsing %s: %w", file, err)
		}
		return spec, nil
	}
	spec.Programs, spec.Archs = splitList(progs), splitList(archs)
	var err error
	if spec.Latencies, err = numList[int64]("-latencies", latencies); err != nil {
		return spec, err
	}
	if spec.LoadQs, err = numList[int]("-loadqs", loadqs); err != nil {
		return spec, err
	}
	spec.StoreQs, err = numList[int]("-storeqs", storeqs)
	return spec, err
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func numList[T int | int64](flagName, s string) ([]T, error) {
	var out []T
	for _, f := range splitList(s) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flagName, err)
		}
		out = append(out, T(v))
	}
	return out, nil
}

// progressPrinter reports to w at every decile boundary. The callback
// runs from concurrent chunk completions, hence the atomic.
func progressPrinter(w io.Writer, total int) func(done, total int) {
	if total == 0 {
		return nil
	}
	var last atomic.Int64
	return func(done, total int) {
		dec := int64(done * 10 / total)
		for {
			prev := last.Load()
			if dec <= prev {
				return
			}
			if last.CompareAndSwap(prev, dec) {
				fmt.Fprintf(w, "dvasweep: %d%% (%d/%d)\n", dec*10, done, total)
				return
			}
		}
	}
}
