// Command dvad is the long-running simulation daemon: simulation-as-a-
// service over the same engine, suite and persistent cache the CLI tools
// use.
//
// Usage:
//
//	dvad [-addr :8382] [-scale 1.0] [-max-concurrent N] [-max-queue N]
//	     [-timeout 60s] [-gc-interval 5m]
//	     [-cache on|off] [-cache-dir DIR] [-cache-max-mb 512] [-cache-verify F]
//
// Endpoints: POST /v1/simulate (one run, `-metrics-json`-shaped reply),
// POST /v1/sweep (an explicit cell list, answered as a stream of NDJSON rows;
// dvasweep -workers expands a grid into it), GET /healthz, GET /statsz
// (counters; ?format=table for ASCII).
//
// Identical concurrent requests coalesce into one simulation; an admission
// gate bounds concurrent simulations and sheds load with 429 when the wait
// queue overflows. SIGINT/SIGTERM trigger a graceful shutdown: in-flight
// requests drain, the cache is GC'd a final time, and the served/simulated
// counters print in the same tables dvabench uses. See DESIGN.md "Serving".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"decvec"
)

func main() {
	// The process ends with run, so the signal registration is never undone.
	ctx, _ := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx is cancelled, then drains, GCs the cache and prints
// the counters.
func run(ctx context.Context, args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8382", "listen address")
		scale    = fs.Float64("scale", 1.0, "trace scale factor shared by every request")
		maxConc  = fs.Int("max-concurrent", 0, "max simultaneously running simulations (0 = GOMAXPROCS)")
		maxQueue = fs.Int("max-queue", 0, "max simulations waiting for a slot before 429 (0 = 4x max-concurrent)")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-request wall-time cap (requests answer 504 past it)")
		gcEvery  = fs.Duration("gc-interval", 5*time.Minute, "periodic cache GC interval (0 disables; the shutdown GC always runs)")
	)
	cache := decvec.RegisterCacheFlags(fs, "enforced periodically and at shutdown")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	err := cache.Validate()
	if err == nil {
		err = decvec.CheckScale(*scale)
	}
	if err == nil && (*maxConc < 0 || *maxQueue < 0 || *timeout < 0 || *gcEvery < 0) {
		err = errors.New("-max-concurrent, -max-queue, -timeout and -gc-interval must be >= 0")
	}
	if err != nil {
		fmt.Fprintf(stderr, "dvad: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dvad: %v\n", err)
		return 1
	}
	store := cache.Open(stderr, "dvad")
	srv := decvec.NewServer(decvec.ServerConfig{
		Scale:          *scale,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		Store:          store,
		GCInterval:     *gcEvery,
	})
	srv.Suite().VerifyFraction = cache.Verify

	cacheNote := "off"
	if store != nil {
		cacheNote = store.Dir()
	}
	fmt.Fprintf(stderr, "dvad: serving on %s (scale %g, cache %s)\n", ln.Addr(), *scale, cacheNote)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var serveErr error
	select {
	case serveErr = <-served:
	case <-ctx.Done():
		fmt.Fprintln(stderr, "dvad: draining in-flight requests...")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "dvad: shutdown: %v\n", err)
	}
	if serveErr == nil {
		serveErr = <-served
	}

	fmt.Fprint(stderr, decvec.ServerTable(srv.Stats()))
	if store != nil {
		fmt.Fprint(stderr, decvec.CacheTable(store.Stats()))
	}
	if !errors.Is(serveErr, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "dvad: %v\n", serveErr)
		return 1
	}
	return 0
}
