// Command dvadload is the load-test harness for the dvad daemon: it fires
// concurrent /v1/simulate requests, reports latency percentiles and
// throughput, and measures coalescing — requests served versus simulations
// actually run, read from /statsz before and after the storm.
//
// Usage:
//
//	dvadload [-url http://localhost:8382] [-n 200] [-c 100]
//	         [-prog BDNA] [-arch DVA] [-latency 50] [-mix]
//	         [-assert-coalesce]
//
// By default every request is identical, the worst case for a naive server
// and the best case for a coalescing one: N requests must cost at most one
// simulation (zero on a warm cache). -mix varies the latency per request to
// exercise throughput across distinct configurations instead.
// -assert-coalesce exits nonzero unless all requests succeeded and the
// simulation delta stayed ≤ 1 — the CI smoke contract.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvadload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url       = fs.String("url", "http://localhost:8382", "dvad base URL")
		n         = fs.Int("n", 200, "total requests")
		c         = fs.Int("c", 100, "concurrent workers")
		prog      = fs.String("prog", "BDNA", "program to request")
		arch      = fs.String("arch", "DVA", "architecture to request")
		latency   = fs.Int64("latency", 50, "memory latency to request")
		mix       = fs.Bool("mix", false, "vary the latency per request (distinct configurations) instead of firing identical requests")
		assertCoa = fs.Bool("assert-coalesce", false, "exit nonzero unless every request succeeded and the run cost at most one simulation")
		timeout   = fs.Duration("timeout", 2*time.Minute, "per-request client timeout")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *n < 1 || *c < 1 {
		fmt.Fprintln(stderr, "dvadload: -n and -c must be positive")
		return 2
	}
	if *assertCoa && *mix {
		fmt.Fprintln(stderr, "dvadload: assert-coalesce requires identical requests (drop -mix)")
		return 2
	}

	client := &http.Client{Timeout: *timeout}
	before, err := stats(client, *url)
	if err != nil {
		fmt.Fprintf(stderr, "dvadload: reading /statsz: %v\n", err)
		return 1
	}

	type result struct {
		dur    time.Duration
		status int
		err    error
	}
	results := make([]result, *n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				lat := *latency
				if *mix {
					// Walk the paper's latency sweep so each request is a
					// distinct, equally real configuration.
					lat = int64(1 + 10*(i%11))
					if lat > 1 {
						lat-- // 1,10,20,...,100
					}
				}
				body, _ := json.Marshal(map[string]any{
					"program": *prog, "arch": *arch, "latency": lat,
				})
				t0 := time.Now()
				resp, err := client.Post(*url+"/v1/simulate", "application/json", bytes.NewReader(body))
				r := result{dur: time.Since(t0), err: err}
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					r.status = resp.StatusCode
				}
				results[i] = r
			}
		}()
	}
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	after, err := stats(client, *url)
	if err != nil {
		fmt.Fprintf(stderr, "dvadload: reading /statsz: %v\n", err)
		return 1
	}

	var durs []time.Duration
	ok, failed := 0, 0
	statuses := map[int]int{}
	for _, r := range results {
		if r.err != nil {
			failed++
			continue
		}
		statuses[r.status]++
		if r.status == http.StatusOK {
			ok++
			durs = append(durs, r.dur)
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })

	sims := after.Simulations - before.Simulations
	fmt.Fprintf(stdout, "dvadload: %d requests (%d workers) in %v (%.1f req/s)\n",
		*n, *c, wall.Round(time.Millisecond), float64(*n)/wall.Seconds())
	fmt.Fprintf(stdout, "  ok: %d", ok)
	for code, cnt := range statuses {
		if code != http.StatusOK {
			fmt.Fprintf(stdout, "  %d: %d", code, cnt)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "  transport errors: %d", failed)
	}
	fmt.Fprintln(stdout)
	if len(durs) > 0 {
		fmt.Fprintf(stdout, "  latency: p50 %v  p90 %v  p99 %v  max %v\n",
			pct(durs, 50), pct(durs, 90), pct(durs, 99), durs[len(durs)-1])
	}
	fmt.Fprintf(stdout, "  coalescing: %d requests served by %d simulations", ok, sims)
	if sims > 0 {
		fmt.Fprintf(stdout, " (%.0fx)", float64(ok)/float64(sims))
	}
	fmt.Fprintln(stdout)

	if *assertCoa {
		if ok != *n {
			fmt.Fprintf(stderr, "dvadload: assert-coalesce: only %d/%d requests succeeded\n", ok, *n)
			return 1
		}
		if sims > 1 {
			fmt.Fprintf(stderr, "dvadload: assert-coalesce: %d identical requests cost %d simulations, want <= 1\n", *n, sims)
			return 1
		}
		fmt.Fprintf(stdout, "  assert-coalesce: PASS (%d requests, %d simulation(s))\n", *n, sims)
	}
	return 0
}

// statsz is the subset of /statsz dvadload needs.
type statsz struct {
	Served      int64 `json:"served"`
	Simulations int64 `json:"simulations"`
}

func stats(client *http.Client, base string) (statsz, error) {
	var s statsz
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/statsz: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// pct returns the p-th percentile of sorted durations (nearest-rank).
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}
