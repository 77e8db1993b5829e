package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decvec/internal/experiments"
	"decvec/internal/server"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
	"decvec/internal/workload"
)

// dvadServer spins a real in-process dvad, over store when it is non-nil,
// for the remote executor to talk to; only the test file imports
// internal/server (test files sit outside the layer DAG). The server itself
// imports this package for sweep.Plan, hence the external test package.
func dvadServer(t *testing.T, store *simcache.Store) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{Scale: 0.05, Store: store})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts
}

// canonical is the cell's result as the local suite computes and encodes
// it — the byte-identity reference for whatever the wire returns.
func canonical(t *testing.T, suite *experiments.Suite, c sweep.Cell) []byte {
	t.Helper()
	res, err := suite.RunCtx(context.Background(), c.Program, c.Job().RunSpec)
	if err != nil {
		t.Fatal(err)
	}
	return sim.AppendResult(nil, res)
}

// planCells returns every cell of a one-program, one-arch plan of n
// latencies, in plan order.
func planCells(t *testing.T, n int) []sweep.Cell {
	t.Helper()
	lats := make([]int64, n)
	for i := range lats {
		lats[i] = int64(i + 1)
	}
	plan, err := sweep.NewPlan(sweep.GridSpec{Programs: []string{"BDNA"}, Archs: []string{"DVA"}, Latencies: lats})
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]sweep.Cell, plan.Points())
	for i := range cells {
		cells[i] = plan.Cell(i)
	}
	return cells
}

// A worker that sheds load with 429 must be retried with backoff, not
// declared down — and the results it finally returns must byte-match a
// local run.
func TestRemoteRetriesAfter429(t *testing.T) {
	ts := dvadServer(t, nil)
	var rejected atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" && rejected.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		r2 := r.Clone(r.Context())
		r2.URL.Scheme = "http"
		r2.URL.Host = ts.Listener.Addr().String()
		proxy(w, r2)
	}))
	defer front.Close()

	cells := planCells(t, 6)
	rr := sweep.NewRemote(front.URL, sweep.RemoteOptions{Retries: 5, Backoff: time.Millisecond})
	out, err := rr.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuite(0.05)
	for i, r := range out {
		if r == nil {
			t.Fatalf("cell %d missing", i)
		}
		if !bytes.Equal(sim.AppendResult(nil, r), canonical(t, suite, cells[i])) {
			t.Errorf("cell %d differs from the local run", i)
		}
	}
	if got := rr.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

// A stream that breaks mid-way must be resumed by retrying only the cells
// never received: rows already flushed stay merged.
func TestRemoteRecoversFromMidStreamBreak(t *testing.T) {
	ts := dvadServer(t, nil)
	suite := experiments.NewSuite(0.05)
	var sweeps atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" && sweeps.Add(1) == 1 {
			// Serve the first two cells for real, then drop the
			// connection before the trailer.
			var req sweep.Request
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Cells) < 3 {
				t.Errorf("first sweep request malformed: %v (%d cells)", err, len(req.Cells))
				panic(http.ErrAbortHandler)
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			for i := 0; i < 2; i++ {
				p, err := workload.Get(req.Cells[i].Program)
				if err != nil {
					t.Error(err)
					panic(http.ErrAbortHandler)
				}
				res, err := suite.RunCtx(r.Context(), p, experiments.RunSpec{Arch: experiments.Arch(req.Cells[i].Arch), Cfg: sim.DefaultConfig(req.Cells[i].Latency)})
				if err != nil {
					t.Error(err)
					panic(http.ErrAbortHandler)
				}
				enc.Encode(sweep.Row{I: i, Result: sim.AppendResult(nil, res)})
				w.(http.Flusher).Flush()
			}
			panic(http.ErrAbortHandler)
		}
		r2 := r.Clone(r.Context())
		r2.URL.Scheme = "http"
		r2.URL.Host = ts.Listener.Addr().String()
		proxy(w, r2)
	}))
	defer front.Close()

	cells := planCells(t, 6)
	rr := sweep.NewRemote(front.URL, sweep.RemoteOptions{Retries: 3, Backoff: time.Millisecond})
	out, err := rr.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	ref := experiments.NewSuite(0.05)
	for i, r := range out {
		if r == nil {
			t.Fatalf("cell %d missing after mid-stream recovery", i)
		}
		if !bytes.Equal(sim.AppendResult(nil, r), canonical(t, ref, cells[i])) {
			t.Errorf("cell %d differs from the local run", i)
		}
	}
	if got := rr.Stats().Retries; got < 1 {
		t.Errorf("retries = %d, want >= 1", got)
	}
}

// A single-cell chunk rides the /v1/sweep stream like any other chunk: it
// must return the canonical bytes, and its trailer must reach Stats, so
// the one cold cell on a store-backed worker counts as one cache miss.
func TestRemoteSingleCell(t *testing.T) {
	store, err := simcache.Open(t.TempDir(), simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := dvadServer(t, store)
	rr := sweep.NewRemote(ts.URL, sweep.RemoteOptions{Retries: 2, Backoff: time.Millisecond})
	cells := planCells(t, 3)[1:2]
	out, err := rr.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuite(0.05)
	if !bytes.Equal(sim.AppendResult(nil, out[0]), canonical(t, suite, cells[0])) {
		t.Error("single-cell result differs from the local run")
	}
	if st := rr.Stats(); st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Errorf("Stats() = %d hits, %d misses; want 0 hits, 1 miss", st.CacheHits, st.CacheMisses)
	}
}

// The coordinator keeps several chunks in flight per worker, so one Remote
// serves concurrent Run calls. Its baseline and trailer counters are shared
// state; under -race this checks their locking. The worker has a store, so
// both the /statsz baseline and the trailers carry counters.
func TestRemoteConcurrentRuns(t *testing.T) {
	store, err := simcache.Open(t.TempDir(), simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := dvadServer(t, store)
	rr := sweep.NewRemote(ts.URL, sweep.RemoteOptions{Retries: 2, Backoff: time.Millisecond})
	cells := planCells(t, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < len(cells); i += 2 {
		chunk := cells[i : i+2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out, err := rr.Run(context.Background(), chunk)
			if err != nil {
				t.Error(err)
				return
			}
			for j, r := range out {
				if r == nil {
					t.Errorf("cell %d missing", chunk[j].Index)
				}
			}
		}()
	}
	close(start)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Poll Stats meanwhile: its locked reads pair with every counter write,
	// so the race detector sees a write made outside the lock.
	for {
		select {
		case <-done:
			return
		case <-time.After(100 * time.Microsecond):
			rr.Stats()
		}
	}
}

// A worker that is simply gone must exhaust its retries and surface
// ErrWorkerDown — the coordinator's failover signal.
func TestRemoteDeadWorkerReportsDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	cells := planCells(t, 4)
	rr := sweep.NewRemote(dead.URL, sweep.RemoteOptions{Retries: 1, Backoff: time.Millisecond})
	_, err := rr.Run(context.Background(), cells)
	if !errors.Is(err, sweep.ErrWorkerDown) {
		t.Fatalf("dead worker error = %v, want ErrWorkerDown", err)
	}
}

// A 400 rejection is permanent: retrying a request the worker rejected as
// malformed can never succeed, and must not be mistaken for worker death.
func TestRemoteBadRequestIsPermanent(t *testing.T) {
	var calls atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" {
			calls.Add(1)
		}
		http.Error(w, "no such program", http.StatusBadRequest)
	}))
	defer front.Close()

	cells := planCells(t, 4)
	rr := sweep.NewRemote(front.URL, sweep.RemoteOptions{Retries: 3, Backoff: time.Millisecond})
	_, err := rr.Run(context.Background(), cells)
	if err == nil || errors.Is(err, sweep.ErrWorkerDown) {
		t.Fatalf("400 must be a permanent non-down error, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("400 was retried %d times; must not be retried", calls.Load()-1)
	}
}

// A row that names no pending cell, or one already answered, is a worker
// fault the coordinator cannot repair by retrying: each fails the chunk at
// once, with its own message and the worker's name.
func TestRemoteRejectsBadRowIndices(t *testing.T) {
	row := func(i int) string {
		b, err := json.Marshal(sweep.Row{I: i, Result: sim.AppendResult(nil, &sim.Result{Arch: "DVA"})})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	for _, c := range []struct {
		name, body, want string
	}{
		{"out of range", row(0) + row(2), "sweep row index 2 out of range"},
		{"negative", row(-3), "sweep row index -3 out of range"},
		{"repeated", row(1) + row(1), "sweep row index 1 answered twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/sweep" {
					http.NotFound(w, r)
					return
				}
				calls.Add(1)
				w.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(w, c.body+`{"i":-1,"done":true}`+"\n")
			}))
			defer worker.Close()
			rr := sweep.NewRemote(worker.URL, sweep.RemoteOptions{Name: "scripted-7", Retries: 3, Backoff: time.Millisecond})
			_, err := rr.Run(context.Background(), planCells(t, 2))
			if err == nil || !strings.Contains(err.Error(), "worker scripted-7: "+c.want) {
				t.Fatalf("error = %v, want one naming worker scripted-7 with %q", err, c.want)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("the chunk was sent %d times; a bad row index must not be retried", n)
			}
		})
	}
}

// proxy forwards one request to the backing server and copies the
// response through, preserving streaming flushes.
func proxy(w http.ResponseWriter, r *http.Request) {
	r.RequestURI = ""
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n])
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
