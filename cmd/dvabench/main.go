// Command dvabench regenerates the paper's tables and figures.
//
// Usage:
//
//	dvabench [-exp table1,fig1,fig3,...|all] [-scale 1.0] [-q] [-out dir]
//
// Each experiment prints an ASCII rendition of the corresponding paper
// table or figure. Experiments sharing simulation runs (fig3/4/5) reuse a
// common cache, so running "all" costs little more than the union of runs.
//
// The -cpuprofile and -memprofile flags write runtime/pprof profiles
// covering the experiment runs, for use with "go tool pprof" (see also
// "make profile"). Profiling is passive; reports are unaffected.
//
// -slowtick disables the idle-skip fast path and simulates every cycle
// (DESIGN.md "Idle-skip advancement"). The output is byte-identical in
// both modes; only the wall clock differs.
//
// Simulation results persist in a content-addressed cache (default
// $XDG_CACHE_HOME/decvec; see DESIGN.md "Result cache"), so repeat
// invocations skip simulation entirely. -cache=off disables it, -cache-dir
// relocates it, -cache-max-mb bounds it (GC runs at the end of every
// invocation, even ones that fail mid-run), and -cache-verify re-simulates
// a fraction of cache hits and fails loudly on any divergence. Keys
// include a fingerprint of the simulator sources, so editing any model
// forces a cold run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"decvec"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run holds the whole invocation so that end-of-run cache maintenance —
// the GC that enforces -cache-max-mb and the hit/miss accounting — happens
// on every exit path, including mid-run experiment failures.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps       = fs.String("exp", "all", "comma-separated experiments to run, or 'all'; available: "+strings.Join(decvec.ExperimentNames(), ","))
		scale      = fs.Float64("scale", 1.0, "trace scale factor (1.0 = default trace sizes)")
		quiet      = fs.Bool("q", false, "suppress timing output")
		outDir     = fs.String("out", "", "also write each experiment's report to <dir>/<name>.txt")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile (after the runs) to this file")
		slowTick   = fs.Bool("slowtick", false, "disable the idle-skip fast path and simulate every cycle (same output, ~3x slower)")
	)
	cache := decvec.RegisterCacheFlags(fs, "enforced after the run")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	err := cache.Validate()
	if err == nil {
		err = decvec.CheckScale(*scale)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dvabench: %v\n", err)
		return 2
	}
	// Reject a misspelled experiment before any other one spends its run.
	names := decvec.ExperimentNames()
	if *exps != "all" {
		known := names
		names = nil
		for _, name := range strings.Split(*exps, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !slices.Contains(known, name) {
				fmt.Fprintf(stderr, "dvabench: unknown experiment %q in -exp (available: %s)\n", name, strings.Join(known, ","))
				return 2
			}
			names = append(names, name)
		}
		if len(names) == 0 {
			fmt.Fprintln(stderr, "dvabench: -exp names no experiment")
			return 2
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "dvabench: %v\n", err)
			return 1
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "dvabench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "dvabench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	suite := decvec.NewSuite(*scale)
	suite.SlowTick = *slowTick
	suite.VerifyFraction = cache.Verify
	suite.Disk = cache.Open(stderr, "dvabench")

	// A mid-run failure stops launching experiments but still falls through
	// to the cache GC and counters below — completed runs were already
	// Put, so the store must still be brought back under its cap.
	var runErr error
	for _, name := range names {
		start := time.Now()
		out, err := decvec.RunExperimentCtx(ctx, suite, name)
		if err != nil {
			runErr = err
			break
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", name, out)
		if *outDir != "" {
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				runErr = err
				break
			}
		}
		if !*quiet {
			fmt.Fprintf(stdout, "(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "dvabench: %v\n", runErr)
	}

	if suite.Disk != nil {
		if _, err := suite.Disk.GC(); err != nil {
			fmt.Fprintf(stderr, "dvabench: cache GC: %v\n", err)
		}
		if !*quiet {
			fmt.Fprintf(stdout, "%s(simulations run: %d, cache %s)\n\n",
				decvec.CacheTable(suite.CacheStats()), suite.Simulations(), suite.Disk.Dir())
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "dvabench: %v\n", err)
			return 1
		}
		runtime.GC() // settle allocations so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "dvabench: %v\n", err)
			return 1
		}
		f.Close()
	}
	if runErr != nil {
		return 1
	}
	return 0
}
