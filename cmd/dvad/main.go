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
// POST /v1/sweep (a program × arch × latency × queue grid), GET /healthz,
// GET /statsz (counters; ?format=table for ASCII).
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

		cacheMode   = flag.String("cache", "on", "persistent result cache: on or off")
		cacheDir    = flag.String("cache-dir", "", "result cache directory (default $XDG_CACHE_HOME/decvec)")
		cacheMaxMB  = flag.Int64("cache-max-mb", 512, "result cache size cap in MiB, enforced periodically and at shutdown (0 = unbounded)")
		cacheVerify = flag.Float64("cache-verify", 0, "re-simulate this fraction of cache hits and fail the request on any mismatch")
	)
	flag.Parse()
	if *cacheMaxMB < 0 {
		fmt.Fprintf(os.Stderr, "dvad: -cache-max-mb must be >= 0 (0 = unbounded), got %d\n", *cacheMaxMB)
		os.Exit(2)
	}
	if !(*cacheVerify >= 0 && *cacheVerify <= 1) { // also rejects NaN
		fmt.Fprintf(os.Stderr, "dvad: -cache-verify must be a fraction in [0, 1], got %v\n", *cacheVerify)
		os.Exit(2)
	}

	var store *decvec.CacheStore
	if *cacheMode != "off" {
		dir := *cacheDir
		if dir == "" {
			dir = decvec.DefaultCacheDir()
		}
		if dir == "" {
			fmt.Fprintln(os.Stderr, "dvad: no cache directory available; serving without the disk tier (set -cache-dir)")
		} else {
			maxBytes := *cacheMaxMB << 20
			if *cacheMaxMB == 0 {
				maxBytes = -1 // unbounded
			}
			var err error
			store, err = decvec.OpenCache(dir, decvec.CacheOptions{MaxBytes: maxBytes})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvad: %v; serving without the disk tier\n", err)
				store = nil
			}
		}
	}

	srv := decvec.NewServer(decvec.ServerConfig{
		Scale:          *scale,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		Store:          store,
		GCInterval:     *gcEvery,
	})
	srv.Suite().VerifyFraction = *cacheVerify

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
