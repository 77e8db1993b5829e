// Package server implements dvad, the long-running simulation daemon: an
// HTTP/JSON front end over an embedded experiments.Suite that turns the
// one-shot CLI simulator into shared evaluation infrastructure.
//
// Endpoints:
//
//   - POST /v1/simulate — one (workload or uploaded trace) × arch × config
//     run, answering the `dvasim -metrics-json` payload.
//   - POST /v1/sweep — an explicit cell list (sweep.Request), answered as
//     a stream of NDJSON rows (sweep.Row), one per cell in completion order
//     carrying the canonical binary result encoding, then a trailer with the
//     cache counters. It is the dvasweep remote executor's one transport; a
//     grid reaches dvad only as the cells dvasweep expands it into.
//   - GET  /healthz — liveness.
//   - GET  /statsz — request counters, admission gauges, simulation count
//     and cache counters (report.ServerMetric; ?format=table for ASCII).
//
// The suite's singleflight tiers are the coalescing unit: a thousand
// identical concurrent requests perform one simulation, and with a
// persistent store attached a request already answered in any previous
// process performs zero. Real simulator invocations — never cache hits or
// coalesced waiters — pass through an admission gate bounding concurrency
// and queue depth (429 on overflow). Shutdown drains in-flight work and
// runs a final cache GC; a periodic GC keeps a long-lived daemon inside its
// size cap continuously rather than only at exit.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decvec/internal/experiments"
	"decvec/internal/report"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// Config parametrizes a Server.
type Config struct {
	// Scale is the trace scale factor shared by every request (1.0 =
	// default trace sizes). Requests cannot override it: the scale is part
	// of the suite's identity, and mixing scales would fragment the cache.
	Scale float64

	// MaxConcurrent bounds simultaneously running simulations;
	// 0 = GOMAXPROCS.
	MaxConcurrent int

	// MaxQueue bounds simulations waiting for a slot; past it the gate
	// sheds load with 429. 0 = 4×MaxConcurrent.
	MaxQueue int

	// RequestTimeout caps the wall time of one request (queue wait
	// included). Expired requests answer 504; a simulation already running
	// completes and lands in the cache for the retry. 0 = 60s.
	RequestTimeout time.Duration

	// Store, when non-nil, is the persistent disk tier shared with the CLI
	// tools. The server owns its lifecycle from here: periodic and
	// shutdown GC.
	Store *simcache.Store

	// GCInterval is how often the background GC enforces the store's size
	// cap; 0 disables periodic GC (the final shutdown GC still runs).
	GCInterval time.Duration

	// MaxSweepPoints bounds the number of cells in one /v1/sweep request.
	// 0 = 4096.
	MaxSweepPoints int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	return c
}

// Server is the dvad daemon: an embedded suite, its admission gate, and the
// HTTP handlers over them.
type Server struct {
	cfg   Config
	suite *experiments.Suite
	gate  *gate
	mux   *http.ServeMux
	start time.Time

	httpSrv atomic.Pointer[http.Server]

	bg     sync.WaitGroup // detached simulations outliving their request
	stopGC chan struct{}
	gcWG   sync.WaitGroup

	served, simulateReqs, sweepReqs     atomic.Int64
	overloaded, timeouts, requestErrors atomic.Int64

	// simHook, when non-nil, runs inside every admitted simulation slot
	// before the simulator starts. Test seam: lets handler tests hold a
	// slot open deterministically. Set before serving traffic.
	simHook func()
}

// New returns a Server over a fresh suite configured per cfg and starts the
// periodic GC loop (when an interval and a store are configured). Callers
// must Shutdown the server to release the loop and run the final GC.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		suite:  experiments.NewSuite(cfg.Scale),
		gate:   newGate(cfg.MaxConcurrent, cfg.MaxQueue),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		stopGC: make(chan struct{}),
	}
	s.suite.Disk = cfg.Store
	s.suite.Gate = gateWithHook{s: s}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	if cfg.Store != nil && cfg.GCInterval > 0 {
		s.gcWG.Add(1)
		go s.gcLoop()
	}
	return s
}

// gateWithHook is the suite-facing gate: the real admission gate plus the
// test seam that runs while the slot is held.
type gateWithHook struct{ s *Server }

func (g gateWithHook) Acquire(ctx context.Context) (func(), error) {
	release, err := g.s.gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	if g.s.simHook != nil {
		g.s.simHook()
	}
	return release, nil
}

// Suite exposes the embedded suite (the load harness and tests read its
// Simulations counter).
func (s *Server) Suite() *experiments.Suite { return s.suite }

// Handler returns the daemon's HTTP handler (httptest servers mount it
// directly).
func (s *Server) Handler() http.Handler { return s.mux }

// gcLoop periodically enforces the store's size cap so a long-lived daemon
// respects it continuously, not only at process exit.
func (s *Server) gcLoop() {
	defer s.gcWG.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_, _ = s.cfg.Store.GC()
		case <-s.stopGC:
			return
		}
	}
}

// ListenAndServe serves the daemon on addr until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, matching net/http.
func (s *Server) ListenAndServe(addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.mux}
	s.httpSrv.Store(hs)
	return hs.ListenAndServe()
}

// Shutdown gracefully stops the daemon: the listener closes, in-flight
// requests and detached background simulations drain, the periodic GC loop
// stops, and — when a store is attached — one final GC enforces the size
// cap before the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if hs := s.httpSrv.Swap(nil); hs != nil {
		err = hs.Shutdown(ctx)
	}
	s.bg.Wait()
	select {
	case <-s.stopGC:
	default:
		close(s.stopGC)
	}
	s.gcWG.Wait()
	if s.cfg.Store != nil {
		if _, gcErr := s.cfg.Store.GC(); gcErr != nil && err == nil {
			err = gcErr
		}
	}
	return err
}

// Stats snapshots the server counters in the /statsz schema.
func (s *Server) Stats() report.ServerMetric {
	m := report.ServerMetric{
		UptimeSec:     time.Since(s.start).Seconds(),
		Served:        s.served.Load(),
		Simulate:      s.simulateReqs.Load(),
		Sweep:         s.sweepReqs.Load(),
		Overloaded:    s.overloaded.Load(),
		Timeouts:      s.timeouts.Load(),
		Errors:        s.requestErrors.Load(),
		InFlight:      s.gate.InFlight(),
		Queued:        s.gate.Queued(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		MaxQueue:      s.cfg.MaxQueue,
		Simulations:   s.suite.Simulations(),
		Coalesced:     s.suite.Coalesced(),
	}
	if s.cfg.Store != nil {
		m.Cache = report.CacheMetricOf(s.cfg.Store.Stats())
	}
	return m
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	m := s.Stats()
	if r.URL.Query().Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, report.ServerTable(m))
		if m.Cache != nil {
			fmt.Fprint(w, report.CacheTable(s.cfg.Store.Stats()))
		}
		return
	}
	b, err := report.ServerJSON(m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// maxBodyBytes bounds request bodies; uploaded traces dominate the budget.
const maxBodyBytes = 64 << 20

// decodeBody decodes a request body holding exactly one JSON value into v.
// A field v does not declare, or anything but white space after the value,
// is an error: a misspelt knob must not silently run the default.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: data after the JSON value")
	}
	return nil
}

// SimulateRequest is the /v1/simulate body: one program (by name) or one
// uploaded trace (binary trace format, base64), an architecture, and the
// queue/latency knobs of the CLI. The answer is always the metrics JSON;
// a client that wants the canonical binary result encoding sends the cell
// to /v1/sweep instead.
type SimulateRequest struct {
	Program string `json:"program,omitempty"`
	// Trace is a base64-encoded binary trace (the dvatrace/WriteTrace
	// format); mutually exclusive with Program. Identical uploads coalesce
	// by content hash.
	Trace   []byte `json:"trace,omitempty"`
	Arch    string `json:"arch"`
	Latency int64  `json:"latency"`
	LoadQ   int    `json:"loadq,omitempty"`
	StoreQ  int    `json:"storeq,omitempty"`
	IQ      int    `json:"iq,omitempty"`
	Jitter  int64  `json:"jitter,omitempty"`
	Bypass  bool   `json:"bypass,omitempty"`
	// TimeoutMs lowers the server's request timeout for this request; it
	// can never raise it.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// config materializes and validates the request's run: its core and
// sim.Config.
func (req *SimulateRequest) config() (experiments.RunSpec, error) {
	// BYP parses to DVA with the bypass bit set, so the request shares cache
	// entries and coalescing with the equivalent DVA run.
	core, bypass, err := sim.ParseArch(req.Arch)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	if req.LoadQ < 0 || req.StoreQ < 0 || req.IQ < 0 || req.Jitter < 0 {
		return experiments.RunSpec{}, errors.New("loadq, storeq, iq and jitter must be >= 0 (0 = the default)")
	}
	cfg := sim.DefaultConfig(req.Latency)
	if req.LoadQ > 0 {
		cfg.AVDQSize = req.LoadQ
	}
	if req.StoreQ > 0 {
		cfg.VADQSize = req.StoreQ
	}
	if req.IQ > 0 {
		cfg.IQSize = req.IQ
	}
	if req.Jitter > 0 {
		cfg.LatencyJitter = req.Jitter
	}
	cfg.Bypass = req.Bypass || bypass
	if err := cfg.Validate(); err != nil {
		return experiments.RunSpec{}, err
	}
	return experiments.RunSpec{Arch: experiments.Arch(core), Cfg: cfg}, nil
}

// requestContext derives the request's work context: the server timeout,
// lowered (never raised) by the request's own cap.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMs > 0 {
		if rd := time.Duration(timeoutMs) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// httpError answers one failed request, classifying the error: gate
// overflow → 429, expiry → 504, everything else → the given fallback.
func (s *Server) httpError(w http.ResponseWriter, err error, fallback int) {
	code := fallback
	switch {
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
		s.overloaded.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		// The client is gone; any status is written to a closed
		// connection. Use 499 (nginx's client-closed-request) for the
		// access-log trail and count it as neither timeout nor error.
		code = 499
	default:
		s.requestErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.requestErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// await runs fn on a tracked goroutine and waits for it or the context.
// Simulations are not interruptible mid-run, so an expired request answers
// 504 immediately while the detached run completes and populates the cache
// for the retry; Shutdown drains these stragglers.
func (s *Server) await(ctx context.Context, fn func() (*sim.Result, error)) (*sim.Result, error) {
	type outcome struct {
		res *sim.Result
		err error
	}
	ch := make(chan outcome, 1)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		res, err := fn()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	spec, err := req.config()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if (req.Program == "") == (len(req.Trace) == 0) {
		s.badRequest(w, errors.New(`exactly one of "program" and "trace" must be set`))
		return
	}
	var run func(context.Context) (*sim.Result, error)
	if req.Program != "" {
		p, err := workload.Get(req.Program)
		if err != nil {
			s.badRequest(w, err)
			return
		}
		run = func(ctx context.Context) (*sim.Result, error) {
			return s.suite.RunCtx(ctx, p, spec)
		}
	} else {
		src, err := trace.Read(bytes.NewReader(req.Trace))
		if err != nil {
			s.badRequest(w, fmt.Errorf("decoding trace: %w", err))
			return
		}
		run = func(ctx context.Context) (*sim.Result, error) {
			return s.suite.RunSourceCtx(ctx, src, spec)
		}
	}
	s.simulateReqs.Add(1)

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	res, err := s.await(ctx, func() (*sim.Result, error) { return run(ctx) })
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	var cache *simcache.Stats
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		cache = &st
	}
	bp := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(bp)
	b, err := report.AppendMetricsJSON((*bp)[:0], res, cache)
	if err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	*bp = b
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// replyBufs holds the buffers /v1/simulate replies are encoded into, so a
// steady stream of replies allocates no body.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, report.MetricsJSONCap); return &b }}

// Compile-time checks: the gates satisfy the suite's admission interface.
var (
	_ experiments.Gate = (*gate)(nil)
	_ experiments.Gate = gateWithHook{}
)
