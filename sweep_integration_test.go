package decvec_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"decvec"
	"decvec/internal/experiments"
	"decvec/internal/server"
	"decvec/internal/sweep"
)

// sweepWorker spins one real in-process dvad worker for the coordinator
// to drive over HTTP.
func sweepWorker(t *testing.T, scale float64) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(server.Config{Scale: scale, RequestTimeout: 5 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return s, ts
}

// sweepDigest concatenates the canonical encodings in plan order.
func sweepDigest(t *testing.T, results []*decvec.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range results {
		if r == nil {
			t.Fatalf("cell %d has no result", i)
		}
		if err := decvec.EncodeResult(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// A two-worker distributed sweep must be byte-identical, in plan order,
// to a single-process RunBatch of the same grid — the contract that makes
// the sweep engine a drop-in scale-out of the experiment harness. The
// full grid tops 1000 cells; -short trims the latency axis.
func TestDistributedSweepMatchesRunBatch(t *testing.T) {
	const scale = 0.02
	nLat := 87 // 2 programs × 2 archs × 87 latencies × 3 loadqs = 1044 cells
	if testing.Short() {
		nLat = 5
	}
	lats := make([]int64, nLat)
	for i := range lats {
		lats[i] = int64(i + 1)
	}
	spec := decvec.SweepGridSpec{
		Programs:  []string{"BDNA", "MG3D"},
		Archs:     []string{"REF", "DVA"},
		Latencies: lats,
		LoadQs:    []int{0, 8, 16},
	}
	plan, err := decvec.NewSweepPlan(spec)
	if err != nil {
		t.Fatal(err)
	}

	_, w1 := sweepWorker(t, scale)
	_, w2 := sweepWorker(t, scale)
	execs := []decvec.SweepExecutor{
		decvec.RemoteExecutor(w1.URL, decvec.RemoteExecutorOptions{Name: "w1"}),
		decvec.RemoteExecutor(w2.URL, decvec.RemoteExecutorOptions{Name: "w2"}),
	}
	distributed, st, err := decvec.RunSweep(context.Background(), plan, execs, decvec.SweepOptions{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resharded != 0 || st.Rounds != 1 {
		t.Errorf("healthy sweep resharded %d cells over %d rounds", st.Resharded, st.Rounds)
	}
	for _, w := range st.Workers {
		if w.Cells == 0 {
			t.Errorf("worker %s received no cells; sharding is degenerate", w.Name)
		}
	}

	// The same grid through one local RunBatch.
	suite := experiments.NewSuite(scale)
	jobs := make([]experiments.BatchJob, plan.Points())
	for i := range jobs {
		jobs[i] = plan.Cell(i).Job()
	}
	local, err := suite.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(sweepDigest(t, distributed), sweepDigest(t, local)) {
		t.Fatal("distributed sweep is not byte-identical to the local batch")
	}
}

// Killing a worker mid-sweep must not lose cells: its shard re-routes to
// the survivor and the merged output still byte-matches a local run.
func TestDistributedSweepSurvivesWorkerDeath(t *testing.T) {
	const scale = 0.02
	lats := make([]int64, 30)
	for i := range lats {
		lats[i] = int64(i + 1)
	}
	plan, err := decvec.NewSweepPlan(decvec.SweepGridSpec{
		Programs:  []string{"BDNA"},
		Archs:     []string{"REF", "DVA"},
		Latencies: lats,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, healthy := sweepWorker(t, scale)
	// The doomed worker proxies its first sweep chunk to a real server,
	// then starts refusing everything — a worker crashing mid-sweep.
	_, backing := sweepWorker(t, scale)
	var sweeps atomic.Int64
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" && sweeps.Add(1) > 1 {
			panic(http.ErrAbortHandler) // dead: connection dropped
		}
		r2 := r.Clone(r.Context())
		r2.URL.Scheme = "http"
		r2.URL.Host = backing.Listener.Addr().String()
		r2.RequestURI = ""
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
				if fl, ok := w.(http.Flusher); ok {
					fl.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer doomed.Close()

	execs := []decvec.SweepExecutor{
		decvec.RemoteExecutor(healthy.URL, decvec.RemoteExecutorOptions{Name: "healthy"}),
		decvec.RemoteExecutor(doomed.URL, decvec.RemoteExecutorOptions{
			Name: "doomed", Retries: 1, Backoff: time.Millisecond,
		}),
	}
	// Small chunks force the doomed worker to need several requests, so
	// its death lands mid-sweep with cells still owed.
	results, st, err := decvec.RunSweep(context.Background(), plan, execs, decvec.SweepOptions{
		Scale: scale, ChunkSize: 5, Inflight: 1,
	})
	if err != nil {
		t.Fatalf("sweep did not survive the worker death: %v", err)
	}

	var doomedFailed bool
	for _, w := range st.Workers {
		if w.Name == "doomed" && w.Failed {
			doomedFailed = true
		}
	}
	if !doomedFailed {
		t.Fatalf("doomed worker not reported failed (did it ever get cells?): %+v", st.Workers)
	}
	if st.Resharded == 0 {
		t.Error("no cells re-sharded despite a worker death")
	}
	if st.Rounds < 2 {
		t.Errorf("rounds = %d, want >= 2", st.Rounds)
	}

	suite := experiments.NewSuite(scale)
	jobs := make([]experiments.BatchJob, plan.Points())
	for i := range jobs {
		jobs[i] = plan.Cell(i).Job()
	}
	local, err := suite.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepDigest(t, results), sweepDigest(t, local)) {
		t.Fatal("post-failover merge is not byte-identical to the local batch")
	}
}

// The facade plumbing: table and JSON renderings of sweep stats. The JSON
// is the dvasweep -json report, so its bytes are pinned whole, including
// the omitted-when-healthy failure fields and HTML-escaped error text.
func TestSweepStatsRendering(t *testing.T) {
	st := sweep.Stats{
		Points: 10, Completed: 10, Resharded: 3, Rounds: 2,
		Workers: []sweep.WorkerStats{
			{Name: "w1", Cells: 7, CacheHits: 8, CacheMisses: 2, HitRatio: 0.8},
			{Name: "w2", Cells: 3, CacheMisses: 3, Retries: 2, Failed: true,
				LastError: `worker <http://w2> down: & "gone"`},
		},
	}
	table := decvec.SweepTable(st)
	for _, want := range []string{"dvasweep", "w1", "80.0", "down"} {
		if !bytes.Contains([]byte(table), []byte(want)) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	b, err := decvec.SweepStatsJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "points": 10,
  "completed": 10,
  "resharded": 3,
  "rounds": 2,
  "workers": [
    {
      "name": "w1",
      "cells": 7,
      "cacheHits": 8,
      "cacheMisses": 2,
      "hitRatio": 0.8,
      "retries": 0
    },
    {
      "name": "w2",
      "cells": 3,
      "cacheHits": 0,
      "cacheMisses": 3,
      "hitRatio": 0,
      "retries": 2,
      "failed": true,
      "lastError": "worker \u003chttp://w2\u003e down: \u0026 \"gone\""
    }
  ]
}`
	if string(b) != want {
		t.Errorf("SweepStatsJSON =\n%s\nwant\n%s", b, want)
	}
}
