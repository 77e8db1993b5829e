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
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"decvec"
)

func main() {
	var (
		addr     = flag.String("addr", ":8382", "listen address")
		scale    = flag.Float64("scale", 1.0, "trace scale factor shared by every request")
		maxConc  = flag.Int("max-concurrent", 0, "max simultaneously running simulations (0 = GOMAXPROCS)")
		maxQueue = flag.Int("max-queue", 0, "max simulations waiting for a slot before 429 (0 = 4x max-concurrent)")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request wall-time cap (requests answer 504 past it)")
		gcEvery  = flag.Duration("gc-interval", 5*time.Minute, "periodic cache GC interval (0 disables; the shutdown GC always runs)")
	)
	cache := decvec.RegisterCacheFlags("enforced periodically and at shutdown")
	flag.Parse()
	if err := cache.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dvad: %v\n", err)
		os.Exit(2)
	}
	store := cache.Open("dvad")

	srv := decvec.NewServer(decvec.ServerConfig{
		Scale:          *scale,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		Store:          store,
		GCInterval:     *gcEvery,
	})
	srv.Suite().VerifyFraction = cache.Verify

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "dvad: %v: draining in-flight requests...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dvad: shutdown: %v\n", err)
		}
	}()

	cacheNote := "off"
	if store != nil {
		cacheNote = store.Dir()
	}
	fmt.Fprintf(os.Stderr, "dvad: serving on %s (scale %g, cache %s)\n", *addr, *scale, cacheNote)
	err := srv.ListenAndServe(*addr)
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "dvad: %v\n", err)
		os.Exit(1)
	}
	<-done // let the signal handler finish draining and GC

	fmt.Fprint(os.Stderr, decvec.ServerTable(srv.Stats()))
	if store != nil {
		fmt.Fprint(os.Stderr, decvec.CacheTable(store.Stats()))
	}
}
