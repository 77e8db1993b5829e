package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decvec/internal/report"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// testServer returns a small-scale server and its httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = 0.05 // keep simulations cheap
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz body = %q", body)
	}
}

func TestSimulateWorkload(t *testing.T) {
	srv, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Program: "BDNA", Arch: "DVA", Latency: 50,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %s: %s", resp.Status, body)
	}
	var m report.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response is not the -metrics-json shape: %v", err)
	}
	if m.Arch != "DVA" || m.Cycles <= 0 {
		t.Errorf("metrics = arch %q cycles %d, want DVA with positive cycles", m.Arch, m.Cycles)
	}
	if got := srv.Suite().Simulations(); got != 1 {
		t.Errorf("Simulations() = %d, want 1", got)
	}
	// The identical request again: memory-tier hit, no new simulation.
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Program: "BDNA", Arch: "DVA", Latency: 50,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second simulate: %s", resp2.Status)
	}
	if !bytes.Equal(body, body2) {
		t.Error("identical requests returned different payloads")
	}
	if got := srv.Suite().Simulations(); got != 1 {
		t.Errorf("Simulations() after repeat = %d, want 1 (cache hit)", got)
	}
}

func TestSimulateBYPCanonicalizesToDVABypass(t *testing.T) {
	srv, ts := testServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Program: "ARC2D", Arch: "BYP", Latency: 30,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("BYP simulate: %s: %s", resp.Status, body)
	}
	// The explicit DVA+bypass spelling must hit the same memory-tier entry.
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Program: "ARC2D", Arch: "DVA", Latency: 30, Bypass: true,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("DVA+bypass simulate: %s: %s", resp.Status, body)
	}
	if got := srv.Suite().Simulations(); got != 1 {
		t.Errorf("Simulations() = %d, want 1 (BYP and DVA+bypass share a key)", got)
	}
}

func TestSimulateUploadedTrace(t *testing.T) {
	srv, ts := testServer(t, Config{})
	p, err := workload.Get("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, p.Trace(0.05)); err != nil {
		t.Fatal(err)
	}
	req := SimulateRequest{Trace: buf.Bytes(), Arch: "REF", Latency: 20}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace simulate: %s: %s", resp.Status, body)
	}
	var m report.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Arch != "REF" || m.Cycles <= 0 {
		t.Errorf("metrics = arch %q cycles %d", m.Arch, m.Cycles)
	}
	// Re-uploading identical bytes coalesces by content hash.
	if resp, _ := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("second trace simulate: %s", resp.Status)
	}
	if got := srv.Suite().Simulations(); got != 1 {
		t.Errorf("Simulations() = %d, want 1 (identical uploads share a key)", got)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"unknown program", SimulateRequest{Program: "NOPE", Arch: "DVA", Latency: 50}},
		{"unknown arch", SimulateRequest{Program: "BDNA", Arch: "VLIW", Latency: 50}},
		{"no latency", SimulateRequest{Program: "BDNA", Arch: "DVA"}},
		{"program and trace", SimulateRequest{Program: "BDNA", Trace: []byte("x"), Arch: "DVA", Latency: 50}},
		{"neither program nor trace", SimulateRequest{Arch: "DVA", Latency: 50}},
		{"garbage trace", SimulateRequest{Trace: []byte("not a trace"), Arch: "DVA", Latency: 50}},
		{"latency over the limit", SimulateRequest{Program: "BDNA", Arch: "REF", Latency: sim.MaxMemLatency + 1}},
		{"load queue over the limit", SimulateRequest{Program: "BDNA", Arch: "DVA", Latency: 50, LoadQ: sim.MaxQueueSlots + 1}},
		{"negative store queue", SimulateRequest{Program: "BDNA", Arch: "DVA", Latency: 50, StoreQ: -4}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s (body %s), want 400", tc.name, resp.Status, body)
		}
	}
	// Method check.
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate: %s, want 405", resp.Status)
	}
}

// TestCoalescing is the tentpole acceptance test: N concurrent identical
// requests complete with exactly one Simulations() increment. The sim hook
// holds the single winner inside its simulation slot until every request
// has been fired, so all N are provably concurrent.
func TestCoalescing(t *testing.T) {
	const n = 100
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, ts := testServer(t, Config{MaxConcurrent: 2, MaxQueue: 2 * n})
	var once, releaseOnce sync.Once
	srv.simHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	// A failed wait leaves requests stuck in the server. Release the hook
	// and cut the client connections, which cancels the handlers' contexts,
	// so the server's cleanup can drain.
	t.Cleanup(func() {
		if t.Failed() {
			unblock()
			ts.CloseClientConnections()
		}
	})

	var wg sync.WaitGroup
	var okCount, failCount atomic.Int64
	body, _ := json.Marshal(SimulateRequest{Program: "BDNA", Arch: "DVA", Latency: 50})
	launched := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			launched <- struct{}{}
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				failCount.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				okCount.Add(1)
			} else {
				failCount.Add(1)
			}
		}()
	}
	// Wait until the winner is inside its simulation slot and every request
	// goroutine has launched, then let the simulation finish.
	waitWithin(t, 20*time.Second, "the winner's slot and the request launches", func() {
		<-entered
		for i := 0; i < n; i++ {
			<-launched
		}
	})
	unblock()
	waitWithin(t, 20*time.Second, "the coalesced requests (wg.Wait)", wg.Wait)

	if got := okCount.Load(); got != n {
		t.Errorf("%d/%d requests succeeded (%d failed)", got, n, failCount.Load())
	}
	if sims := srv.Suite().Simulations(); sims != 1 {
		t.Errorf("Simulations() = %d, want 1: %d identical concurrent requests must coalesce", sims, n)
	}
	st := srv.Stats()
	if st.Coalesced != n-1 {
		t.Errorf("Stats().Coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

// Coalesced counts runs answered by another run's work, here n identical
// requests in a row: one simulation and n-1 memory-tier hits.
func TestCoalescedCountsRepeatRequests(t *testing.T) {
	const n = 5
	srv, ts := testServer(t, Config{})
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Program: "TRFD", Arch: "BYP", Latency: 30})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %s: %s", i, resp.Status, body)
		}
	}
	if st := srv.Stats(); st.Served != n || st.Simulations != 1 || st.Coalesced != n-1 {
		t.Errorf("served %d, sims %d, coalesced %d; want %d, 1, %d", st.Served, st.Simulations, st.Coalesced, n, n-1)
	}
}

// A worker restarted on its store answers a streamed sweep from disk: every
// cell is a disk hit, and no cell was coalesced, since no run shared
// another's work.
func TestRestartedWorkerSweepFromDisk(t *testing.T) {
	dir := t.TempDir()
	cells := []sweep.WireCell{
		{Program: "BDNA", Arch: "DVA", Latency: 1},
		{Program: "BDNA", Arch: "REF", Latency: 1},
		{Program: "TRFD", Arch: "BYP", Latency: 50},
		{Program: "TRFD", Arch: "DVA", Latency: 50, LoadQ: 8},
	}
	var st report.ServerMetric
	for round := 0; round < 2; round++ {
		store, err := simcache.Open(dir, simcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, ts := testServer(t, Config{Store: store})
		resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells})
		if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
			t.Fatalf("round %d: %s: %s", round, resp.Status, body)
		}
		st = srv.Stats()
	}
	if st.Simulations != 0 || st.Coalesced != 0 || st.Cache.Hits != int64(len(cells)) {
		t.Errorf("restarted worker: sims %d, coalesced %d, disk hits %d; want 0, 0, %d",
			st.Simulations, st.Coalesced, st.Cache.Hits, len(cells))
	}
}

// Request bodies are strict: a field the request does not declare, or
// anything but white space after the JSON value, is refused with 400
// before any simulation.
func TestStrictRequestBodies(t *testing.T) {
	srv, ts := testServer(t, Config{})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", `{"program":"BDNA","arch":"DVA","latency":50,"load_q":4}`},
		{"/v1/simulate", `{"program":"BDNA","arch":"DVA","latency":50} {"program":"TRFD"}`},
		{"/v1/simulate", `{"program":"BDNA","arch":"DVA","latency":50}]`},
		{"/v1/sweep", `{"cells":[{"program":"BDNA","arch":"DVA","latency":1,"load_q":4}]}`},
		{"/v1/sweep", `{"cells":[{"program":"BDNA","arch":"DVA","latency":1}]}{}`},
		// Shapes /v1/sweep does not take: a grid body, a streaming knob,
		// and a sweep with no cells, which must not run a default grid.
		{"/v1/sweep", `{"programs":["BDNA"],"archs":["DVA"],"latencies":[1]}`},
		{"/v1/sweep", `{"cells":[{"program":"BDNA","arch":"DVA","latency":1}],"stream":true}`},
		{"/v1/sweep", `{"cells":[]}`},
		{"/v1/sweep", `{}`},
	} {
		if code, body := post(tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s %s: %d (%s), want 400", tc.path, tc.body, code, body)
		}
	}
	if n := srv.Suite().Simulations(); n != 0 {
		t.Fatalf("refused requests ran %d simulations", n)
	}
	// White space after the value is not data.
	if code, body := post("/v1/simulate", "{\"program\":\"BDNA\",\"arch\":\"DVA\",\"latency\":50}\n\t "); code != http.StatusOK {
		t.Errorf("body with trailing white space: %d (%s), want 200", code, body)
	}
}

// Every /v1/simulate reply is its run's metrics JSON and a newline, byte
// for byte, whichever pooled buffer it was encoded into.
func TestSimulateReplyBytes(t *testing.T) {
	store, err := simcache.Open(t.TempDir(), simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := testServer(t, Config{Store: store})
	for _, req := range []SimulateRequest{
		{Program: "BDNA", Arch: "DVA", Latency: 50},
		{Program: "BDNA", Arch: "REF", Latency: 50},
		{Program: "TRFD", Arch: "BYP", Latency: 1},
		{Program: "BDNA", Arch: "DVA", Latency: 50},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: %s: %s", req, resp.Status, body)
		}
		p, err := workload.Get(req.Program)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := req.config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Suite().RunCtx(context.Background(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := report.MetricsJSONWithCache(res, store.Stats())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Errorf("%+v: reply\n%s\nwant\n%s", req, body, want)
		}
	}
}

// waitWithin fails the test if wait has not returned within d, naming what
// it waited for. A lock held across the suite's flight wait deadlocks every
// coalesced request; this turns that hang into a prompt failure instead of
// the package timeout.
func waitWithin(t *testing.T, d time.Duration, what string, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v: deadlock", what, d)
	}
}

// TestOverloadSheds429 fills the single slot and the whole wait queue with
// distinct requests, then asserts the next distinct request bounces with
// 429 without ever reaching a simulator.
func TestOverloadSheds429(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	srv, ts := testServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	srv.simHook = func() {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	post := func(lat int64, done chan<- int) {
		body, _ := json.Marshal(SimulateRequest{Program: "BDNA", Arch: "DVA", Latency: lat})
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}

	// Request 1 occupies the slot (hook admits it and blocks).
	first := make(chan int, 1)
	go post(11, first)
	<-entered

	// Request 2 occupies the single queue position. Poll the gauge until it
	// is actually queued — the HTTP round trip is asynchronous.
	second := make(chan int, 1)
	go post(22, second)
	deadline := time.Now().Add(10 * time.Second)
	for srv.gate.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Request 3 must shed immediately with 429.
	third := make(chan int, 1)
	go post(33, third)
	if code := <-third; code != http.StatusTooManyRequests {
		t.Fatalf("third request got %d, want 429", code)
	}
	if st := srv.Stats(); st.Overloaded != 1 {
		t.Errorf("Stats().Overloaded = %d, want 1", st.Overloaded)
	}

	// Draining the hook lets the held requests finish normally.
	release <- struct{}{}
	release <- struct{}{}
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request got %d, want 200", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Errorf("second request got %d, want 200", code)
	}
}

// TestRequestTimeout expires a request whose simulation slot is held and
// asserts 504; the detached simulation then completes and lands in the
// suite cache, so a retry is instant.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	srv, ts := testServer(t, Config{MaxConcurrent: 1, MaxQueue: 4})
	var block atomic.Bool
	block.Store(true)
	srv.simHook = func() {
		if block.Load() {
			<-release
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Program: "BDNA", Arch: "DVA", Latency: 50, TimeoutMs: 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: %s (%s), want 504", resp.Status, body)
	}
	if st := srv.Stats(); st.Timeouts != 1 {
		t.Errorf("Stats().Timeouts = %d, want 1", st.Timeouts)
	}

	// Unblock the detached run; the simulation completes (runs are not
	// interruptible mid-flight) and lands in the suite cache, so the retry
	// is served without waiting.
	block.Store(false)
	close(release)
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Program: "BDNA", Arch: "DVA", Latency: 50,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after timeout: %s (%s)", resp2.Status, body2)
	}
}

// TestShutdownDrains starts a slow request, shuts the server down mid-run,
// and asserts the request still completes 200 — graceful shutdown must
// drain, not kill.
func TestShutdownDrains(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{Scale: 0.05, MaxConcurrent: 1, MaxQueue: 1}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var once sync.Once
	s.simHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	status := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(SimulateRequest{Program: "BDNA", Arch: "DVA", Latency: 50})
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight run, not race past it.
	select {
	case err := <-shutdownDone:
		close(release) // let the request finish, or the deferred ts.Close hangs
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if code := <-status; code != http.StatusOK {
		t.Errorf("in-flight request got %d during graceful shutdown, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestShutdownRunsFinalGC attaches an over-cap store and asserts Shutdown
// enforces the cap (the long-lived daemon's exit-path GC).
func TestShutdownRunsFinalGC(t *testing.T) {
	store, err := simcache.Open(t.TempDir(), simcache.Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Scale: 0.05, Store: store})
	resp := httptest.NewRecorder()
	body, _ := json.Marshal(SimulateRequest{Program: "BDNA", Arch: "DVA", Latency: 50})
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	s.Handler().ServeHTTP(resp, req)
	if resp.Code != http.StatusOK {
		t.Fatalf("simulate: %d", resp.Code)
	}
	if st := store.Stats(); st.Writes != 1 {
		t.Fatalf("store writes = %d, want 1", st.Writes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Evicted != 1 {
		t.Errorf("store evicted = %d, want 1: Shutdown must run the final GC", st.Evicted)
	}
}

func TestStatszAndSweep(t *testing.T) {
	srv, ts := testServer(t, Config{})
	var cells []sweep.WireCell
	for _, prog := range []string{"BDNA", "TRFD"} {
		for _, arch := range []string{"REF", "DVA"} {
			for _, lat := range []int64{1, 50} {
				cells = append(cells, sweep.WireCell{Program: prog, Arch: arch, Latency: lat})
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %s: %s", resp.Status, body)
	}
	rows, done := sweepRows(t, body)
	if len(rows) != 8 {
		t.Fatalf("sweep returned %d rows, want 2x2x2 = 8", len(rows))
	}
	for i, res := range rows {
		if res.Cycles <= 0 {
			t.Errorf("cell %d (%+v) has nonpositive cycles", i, cells[i])
		}
	}
	if done.Simulations != 8 {
		t.Errorf("sweep trailer Simulations = %d, want 8", done.Simulations)
	}

	// statsz reflects the traffic.
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var m report.ServerMetric
	if err := json.NewDecoder(sresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Sweep != 1 || m.Served != 1 || m.Simulations != 8 {
		t.Errorf("statsz = sweep %d served %d sims %d, want 1/1/8", m.Sweep, m.Served, m.Simulations)
	}
	if m.MaxConcurrent != srv.cfg.MaxConcurrent {
		t.Errorf("statsz maxConcurrent = %d, want %d", m.MaxConcurrent, srv.cfg.MaxConcurrent)
	}

	// The table rendering works too.
	tresp, err := http.Get(ts.URL + "/statsz?format=table")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	tb, _ := io.ReadAll(tresp.Body)
	if !strings.Contains(string(tb), "dvad server") {
		t.Errorf("statsz table rendering missing header: %q", tb)
	}
}

// TestPeriodicGC proves a long-lived daemon enforces its cap without any
// request traffic: an over-cap store shrinks on the ticker alone.
func TestPeriodicGC(t *testing.T) {
	dir := t.TempDir()
	store, err := simcache.Open(dir, simcache.Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Scale: 0.05, Store: store, GCInterval: 10 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	resp := httptest.NewRecorder()
	body, _ := json.Marshal(SimulateRequest{Program: "TRFD", Arch: "REF", Latency: 10})
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	s.Handler().ServeHTTP(resp, req)
	if resp.Code != http.StatusOK {
		t.Fatalf("simulate: %d", resp.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic GC never evicted the over-cap entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownJoinsGCLoop checks that Shutdown returns only after the
// periodic GC goroutine has exited, so no GC still runs on a store whose
// owner has moved on. Each round starts a fresh loop and, right after
// Shutdown, looks for it inside Store.GC in a goroutine dump. A joined loop
// can never be there; an unjoined one often is, so the rounds catch it. The
// loop must run beside Shutdown for that, hence at least two Ps.
func TestShutdownJoinsGCLoop(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	buf := make([]byte, 1<<20)
	for i := 0; i < 50; i++ {
		store, err := simcache.Open(t.TempDir(), simcache.Options{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Scale: 0.05, Store: store, GCInterval: time.Millisecond})
		time.Sleep(2 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte(".gcLoop(")) && bytes.Contains(g, []byte(").GC(")) {
				t.Fatalf("round %d: the GC loop is still collecting after Shutdown returned:\n%s", i, g)
			}
		}
	}
}

func TestServeTableRendering(t *testing.T) {
	m := report.ServerMetric{Served: 100, Simulations: 1, Coalesced: 99}
	out := report.ServerTable(m)
	for _, want := range []string{"served", "coalesced", "100", "99"} {
		if !strings.Contains(out, want) {
			t.Errorf("ServerTable missing %q:\n%s", want, out)
		}
	}
}

// Serve answers until Shutdown, and a Shutdown that comes before Serve
// starts makes Serve return at once instead of serving forever.
func TestServeStopsAtShutdown(t *testing.T) {
	for _, first := range []string{"serve", "shutdown"} {
		s := New(Config{Scale: 0.05})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if first == "shutdown" {
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ln) }()
		if first == "serve" {
			resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-served:
			if err != http.ErrServerClosed {
				t.Errorf("%s first: Serve returned %v, want http.ErrServerClosed", first, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s first: Serve still running after Shutdown", first)
		}
	}
}
