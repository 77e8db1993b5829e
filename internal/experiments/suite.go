// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (program characteristics), Figure 1 (functional-unit
// usage of the reference architecture), Figures 3-5 (execution time,
// stall-cycle ratio and speedup across memory latencies), Figure 6 (AVDQ
// occupancy distributions), Figure 7 (bypass configurations) and Figure 8
// (memory-traffic reduction), plus the queue-sizing ablations discussed in
// the paper's prose (§5-§7).
package experiments

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"decvec/internal/ideal"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// DefaultLatencies is the memory-latency sweep of Figures 3-5 and 7: the
// paper plots 1 and every multiple of ten up to 100 cycles.
var DefaultLatencies = []int64{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// Figure1Latencies are the four latencies of the Figure 1 state breakdown.
var Figure1Latencies = []int64{1, 30, 70, 100}

// Figure6Latencies are the three latencies of the Figure 6 histograms.
var Figure6Latencies = []int64{1, 30, 100}

// Arch selects a simulator.
type Arch string

// Architectures.
const (
	REF Arch = "REF" // the reference (coupled) vector architecture
	DVA Arch = "DVA" // the decoupled vector architecture
	OOO Arch = "OOO" // the out-of-order, register-renaming extension (§8)
)

// Gate admission-controls real simulator invocations. A server attaches one
// to Suite.Gate to bound concurrent simulations and shed load: Acquire
// blocks until a slot frees, the context is cancelled, or the gate refuses
// (overload); release must be called exactly once per successful Acquire.
// Cache hits and coalesced duplicate requests never touch the gate — only
// the call that actually runs a simulator pays for a slot.
type Gate interface {
	Acquire(ctx context.Context) (release func(), err error)
}

// Suite runs simulations for the experiment drivers through one run path
// with a two-tier cache. Every run, whatever its entry (RunCtx,
// RunSourceCtx or RunBatch), is keyed on the trace's content hash and the
// RunSpec: architecture and full configuration. The in-process tier memoizes
// results under that key: figures sharing runs — 3, 4 and 5 use identical
// sweeps — simulate each configuration exactly once, also under
// concurrency (duplicate requests for an in-flight key wait for the first
// caller), and a workload run and an upload of the identical trace share
// one simulation. The optional persistent content-addressed store (Disk)
// survives the process, so repeat invocations skip simulation entirely.
// A Suite is safe for concurrent use.
type Suite struct {
	// Scale is the trace scale factor (1.0 = default trace sizes).
	Scale float64

	// SlowTick forces every simulation the suite performs into the
	// per-cycle reference mode (sim.Config.SlowTick), whatever the
	// experiment requested. Results are identical either way — see
	// DESIGN.md "Idle-skip advancement" — so this exists for
	// `dvabench -slowtick` and for timing the two modes against each
	// other. Set it before the first Run; flipping it on a warm suite
	// would mix modes in the cache (harmlessly, but confusingly).
	SlowTick bool

	// Disk, when non-nil, is the persistent result cache consulted between
	// the in-memory map and the simulator (memory → disk → simulate).
	// Lookups are keyed on trace content, architecture, canonical config
	// and the generated model fingerprint, so entries from an edited model
	// can never hit. Set it before the first Run.
	Disk *simcache.Store

	// VerifyFraction re-simulates this fraction of disk hits (selected
	// deterministically per key) and fails the Run loudly if the stored
	// bytes differ from the fresh encoding. 1.0 audits every hit;
	// 0 (default) trusts the checksummed store.
	VerifyFraction float64

	// Gate, when non-nil, admission-controls every real simulator
	// invocation (never cache hits or coalesced waiters). The dvad server
	// installs one to bound concurrency and return 429 under overload.
	// Set it before the first Run.
	Gate Gate

	runs   flightGroup[runKey, *runEntry]
	ideals flightGroup[string, ideal.Bound]

	mu   sync.Mutex
	sims int64 // simulations actually executed (see Simulations)
}

// runKey is the suite's one result key: the trace by content hash, so
// identical traces coalesce whichever entry they arrive through, and the
// run's architecture and full configuration.
type runKey struct {
	trace [32]byte
	spec  RunSpec
}

// runEntry is one run's outcome as the memory tier holds it: the result,
// its canonical payload, or both. A simulation yields the result, and the
// payload the store wrote for it when there is a store; a disk hit yields
// the payload alone, undecoded. The missing form is derived the first time
// a caller asks for it, once per entry, and then shared.
type runEntry struct {
	hit     bool // built from a stored payload alone: res is the derived form
	once    sync.Once
	res     *sim.Result
	payload []byte
	err     error // the decode's error, for a hit
}

// result returns the run's result, decoding a stored payload on first use.
func (e *runEntry) result() (*sim.Result, error) {
	if e.hit {
		e.once.Do(e.decode)
	}
	return e.res, e.err
}

// bytes returns the run's canonical payload, encoding the result on first
// use when no store wrote it. Callers must not modify it.
func (e *runEntry) bytes() []byte {
	if !e.hit {
		e.once.Do(e.encode)
	}
	return e.payload
}

func (e *runEntry) decode() { e.res, e.err = sim.DecodeResultBytes(e.payload) }

func (e *runEntry) encode() {
	if e.payload == nil {
		e.payload = sim.AppendResult(nil, e.res)
	}
}

// NewSuite returns an empty suite at the given trace scale. A scale that
// is not > 0, NaN included, takes the default, so the trace memo is never
// keyed on a value unequal to itself.
func NewSuite(scale float64) *Suite {
	if !(scale > 0) {
		scale = workload.DefaultScale
	}
	return &Suite{
		Scale:  scale,
		runs:   newFlightGroup[runKey, *runEntry](),
		ideals: newFlightGroup[string, ideal.Bound](),
	}
}

// Simulations returns the number of simulator invocations the suite has
// performed; memory-cache, singleflight and disk-cache hits do not count.
// Cache-verification re-simulations do.
func (s *Suite) Simulations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sims
}

// Coalesced returns the number of runs answered by another caller's work:
// from the in-memory tier, or by joining an identical run in flight. Every
// RunCtx, RunSourceCtx and distinct RunBatch cell is one run; a run that
// went to the disk tier or the simulator itself is not coalesced.
func (s *Suite) Coalesced() int64 { return s.runs.shared.Load() }

// CacheStats returns the persistent store's counters, or zeroes when the
// suite runs without one.
func (s *Suite) CacheStats() simcache.Stats {
	if s.Disk == nil {
		return simcache.Stats{}
	}
	return s.Disk.Stats()
}

// countSim tallies one real simulator invocation.
func (s *Suite) countSim() {
	s.mu.Lock()
	s.sims++
	s.mu.Unlock()
}

// admit acquires a simulation slot from the gate (a no-op slot when none is
// installed). Even ungated runs respect an already-cancelled context, so an
// abandoned request never starts a simulation it no longer wants.
func (s *Suite) admit(ctx context.Context) (func(), error) {
	if s.Gate == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return func() {}, nil
	}
	return s.Gate.Acquire(ctx)
}

// RunCtx simulates program p, at the suite scale, as spec describes: REF,
// DVA or OOO under its configuration. It returns a cached result when the
// identical run has been done before — in this process or, with a Disk
// store attached, in any previous one. Concurrent calls for the same key
// share a single simulation, and a caller that gives up stops waiting
// immediately (in the admission queue, or on a coalesced in-flight run)
// without disturbing the computation other callers still want. A trace
// that cannot be hashed cannot be keyed, so it simulates uncached.
func (s *Suite) RunCtx(ctx context.Context, p *workload.Program, spec RunSpec) (*sim.Result, error) {
	e, err := s.runProgram(ctx, p, spec)
	if err != nil {
		return nil, err
	}
	return e.result()
}

// RunBytesCtx is RunCtx answering with the result's canonical payload
// (sim.AppendResult's bytes), through the same run path, tiers and flight
// group. A disk hit hands the stored payload over without decoding it and
// a simulation the bytes the store wrote, so a warm dvad sweep cell costs
// no codec pass. The payload is shared: callers must not modify it.
func (s *Suite) RunBytesCtx(ctx context.Context, p *workload.Program, spec RunSpec) ([]byte, error) {
	e, err := s.runProgram(ctx, p, spec)
	if err != nil {
		return nil, err
	}
	return e.bytes(), nil
}

// runProgram runs program p at the suite scale; see RunCtx.
func (s *Suite) runProgram(ctx context.Context, p *workload.Program, spec RunSpec) (*runEntry, error) {
	th, err := p.CachedTraceHash(s.Scale)
	return s.run(ctx, p.CachedTrace(s.Scale), th, err == nil, spec)
}

// RunSourceCtx simulates an arbitrary materialized trace (for example one
// uploaded to the dvad server) with the full coalescing and two-tier
// caching discipline: runs are keyed on trace content, so identical
// uploads share one simulation and one cache entry — the same entry a
// workload run of the identical trace would use.
func (s *Suite) RunSourceCtx(ctx context.Context, src *trace.Slice, spec RunSpec) (*sim.Result, error) {
	th, err := trace.Hash(src)
	if err != nil {
		return nil, fmt.Errorf("experiments: hashing trace %s: %w", src.Name(), err)
	}
	e, err := s.run(ctx, src, th, true, spec)
	if err != nil {
		return nil, err
	}
	return e.result()
}

// run is the suite's one run path: memory → disk → simulate. Only an
// OOO run takes a window and physical-register pool; any other run with
// either set is refused before it can alias a key without them.
func (s *Suite) run(ctx context.Context, tr *trace.Slice, th [32]byte, keyed bool, spec RunSpec) (*runEntry, error) {
	if spec.Arch != OOO && (spec.Window != 0 || spec.PhysRegs != 0) {
		return nil, fmt.Errorf("experiments: %s on %s takes no window or physical registers (got %d, %d)", spec.Arch, tr.Name(), spec.Window, spec.PhysRegs)
	}
	if s.SlowTick {
		spec.Cfg.SlowTick = true
	}
	if !keyed {
		return s.simulateEntry(ctx, tr, spec)
	}
	key := runKey{trace: th, spec: spec}
	if e, ok := s.runs.get(key); ok {
		return e, nil
	}
	return s.runs.do(ctx, key, func(ctx context.Context) (*runEntry, error) {
		if s.Disk == nil {
			return s.simulateEntry(ctx, tr, spec)
		}
		return s.diskTier(ctx, tr, key)
	})
}

// diskTier consults the persistent store, falls back to the simulator, and
// persists what it produced. A hit is the stored payload, undecoded; a
// simulation keeps the payload the store wrote beside the result. With
// VerifyFraction > 0 a deterministic sample of hits is re-simulated and
// byte-compared against the stored encoding; a mismatch is a hard error,
// never a silent repair. OOO keys append the window and register pool; REF
// and DVA keys append nothing.
func (s *Suite) diskTier(ctx context.Context, tr *trace.Slice, k runKey) (*runEntry, error) {
	extra := ""
	if k.spec.Arch == OOO {
		extra = fmt.Sprintf("window=%d physregs=%d", k.spec.Window, k.spec.PhysRegs)
	}
	key := s.Disk.Key(k.trace, string(k.spec.Arch), k.spec.Cfg, extra)
	if payload, ok := s.Disk.GetBytes(key); ok {
		if !simcache.VerifySample(key, s.VerifyFraction) {
			return &runEntry{hit: true, payload: payload}, nil
		}
		s.Disk.CountVerified()
		fresh, err := s.simulate(ctx, tr, k.spec)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(sim.AppendResult(nil, fresh), payload) {
			return nil, fmt.Errorf("experiments: cache verification FAILED for %s on %s: stored result differs from re-simulation (key %s…); the store at %s holds results no current model produces — remove it and re-run", k.spec.Cfg.Label(string(k.spec.Arch)), tr.Name(), key[:16], s.Disk.Dir())
		}
		return &runEntry{res: fresh, payload: payload}, nil
	}
	r, err := s.simulate(ctx, tr, k.spec)
	if err != nil {
		return nil, err
	}
	// Persistence is best-effort: a full disk or read-only store must not
	// fail a simulation that already succeeded. The encoded payload comes
	// back whether or not the write landed.
	payload, _ := s.Disk.PutBytes(key, r)
	return &runEntry{res: r, payload: payload}, nil
}

// simulateEntry is simulate for the memory tier: the result alone, its
// payload encoded only if a caller asks for it.
func (s *Suite) simulateEntry(ctx context.Context, tr *trace.Slice, spec RunSpec) (*runEntry, error) {
	r, err := s.simulate(ctx, tr, spec)
	if err != nil {
		return nil, err
	}
	return &runEntry{res: r}, nil
}

// simulate performs one uncached simulator invocation on a pooled machine,
// once the gate admits it.
func (s *Suite) simulate(ctx context.Context, tr *trace.Slice, spec RunSpec) (*sim.Result, error) {
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.countSim()
	r, err := dispatch(tr, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", spec.Arch, tr.Name(), err)
	}
	return r, nil
}

// Ideal returns the five-resource lower bound for the program (§5).
// Concurrent calls for the same program share a single computation; ctx
// bounds the wait on a coalesced in-flight one.
func (s *Suite) Ideal(ctx context.Context, p *workload.Program) ideal.Bound {
	if b, ok := s.ideals.get(p.Name); ok {
		return b
	}
	b, _ := s.ideals.do(ctx, p.Name, func(context.Context) (ideal.Bound, error) {
		return ideal.Compute(p.CachedTrace(s.Scale)), nil
	})
	return b
}

// Stats returns the trace statistics for the program at the suite scale,
// memoized on the program so figure drivers never re-drain a trace.
func (s *Suite) Stats(p *workload.Program) *trace.Stats {
	return p.CachedStats(s.Scale)
}

// flightGroup memoizes successful computations per key and deduplicates
// concurrent requests: duplicate calls for an in-flight key wait for the
// first caller instead of recomputing. Errors are not cached — a later
// retry gets a fresh attempt. One map holds every call, in flight or done,
// so a key is copied into the group once.
type flightGroup[K comparable, V any] struct {
	mu    *sync.Mutex
	calls map[K]*flightCall[V]
	// shared counts the calls answered without running fn: cache hits
	// and joins of an in-flight call that return its outcome.
	shared *atomic.Int64
}

// flightCall is one computation: in progress, which other callers can wait
// on, or done and successful, which callers read under the group's lock.
type flightCall[V any] struct {
	done chan struct{} // closed when v/err are set
	ok   bool          // v is published: set under the group's lock
	v    V
	err  error
}

func newFlightGroup[K comparable, V any]() flightGroup[K, V] {
	return flightGroup[K, V]{
		mu:     new(sync.Mutex),
		calls:  make(map[K]*flightCall[V]),
		shared: new(atomic.Int64),
	}
}

// get returns the cached value for key without joining or starting a
// computation. dvad answers most /v1/simulate and /v1/sweep cells
// from a warm suite through RunCtx, so this hit path stays free of the
// closure and flight bookkeeping do needs.
func (g *flightGroup[K, V]) get(key K) (V, bool) {
	g.mu.Lock()
	c, ok := g.calls[key]
	ok = ok && c.ok
	g.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	g.shared.Add(1)
	return c.v, true
}

// do returns the cached value for key, joins an in-flight computation, or
// runs fn itself and publishes the outcome. Waiting is cancellable: a waiter
// whose context ends leaves with ctx.Err() while the computation proceeds
// for the callers that still want it. Conversely, when the computing caller
// is abandoned (its fn fails with a context error) surviving waiters retry
// the computation under their own context rather than inheriting a
// cancellation that was never theirs.
func (g *flightGroup[K, V]) do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			if c.ok {
				g.mu.Unlock()
				g.shared.Add(1)
				return c.v, nil
			}
			g.mu.Unlock()
			select {
			case <-c.done:
				if isContextErr(c.err) && ctx.Err() == nil {
					continue // abandoned winner; retry under our own context
				}
				g.shared.Add(1)
				return c.v, c.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		c := &flightCall[V]{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		v, err := fn(ctx)

		g.mu.Lock()
		c.v, c.err = v, err
		if err == nil {
			c.ok = true
		} else {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
		return v, err
	}
}

// isContextErr reports whether err stems from context cancellation or
// deadline expiry.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// parallelCtx runs the jobs across the available CPUs. All jobs run to
// completion; every error is collected and the joined aggregate returned,
// so one failing configuration cannot mask the others. Jobs must be
// independent; the Suite cache serializes internally. Once the context
// ends, jobs not yet started are skipped (in-flight jobs run to
// completion — simulations are not interruptible mid-run) and the context
// error joins the aggregate.
func parallelCtx(ctx context.Context, jobs []func() error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan func() error)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if err := job(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	return errors.Join(errs...)
}

// RunSpec is the run half of the suite's key: an architecture and its full
// configuration. Window and PhysRegs are the OOO core's issue window and
// physical vector register pool (ooo.Config); they must stay zero for REF
// and DVA.
type RunSpec struct {
	Arch     Arch
	Cfg      sim.Config
	Window   int
	PhysRegs int
}

// RunParams are one REF, DVA or BYP run as a command line or a dvad request
// names it. Zero in LoadQ, StoreQ, IQ or Jitter takes the default; Bypass
// turns the bypass unit on whatever Arch names.
type RunParams struct {
	Arch              string
	Latency           int64
	LoadQ, StoreQ, IQ int
	Jitter            int64
	Bypass            bool
}

// Config is the parameters' configuration: the defaults at Latency, with
// each nonzero queue size and jitter in place of its default. It neither
// parses Arch nor validates, so a caller that range-checked its values, as
// sweep.NewPlan does, gets a configuration that cannot fail.
func (p RunParams) Config() sim.Config {
	cfg := sim.DefaultConfig(p.Latency)
	cfg.AVDQSize = cmp.Or(p.LoadQ, cfg.AVDQSize)
	cfg.VADQSize = cmp.Or(p.StoreQ, cfg.VADQSize)
	cfg.IQSize = cmp.Or(p.IQ, cfg.IQSize)
	cfg.LatencyJitter = cmp.Or(p.Jitter, cfg.LatencyJitter)
	cfg.Bypass = p.Bypass
	return cfg
}

// Resolve parses and validates the parameters into the run they name. BYP
// resolves to DVA with the bypass bit set, so it shares cache entries and
// coalescing with the equivalent DVA run. An error describes a bad input.
func (p RunParams) Resolve() (RunSpec, error) {
	core, bypass, err := sim.ParseArch(p.Arch)
	if err != nil {
		return RunSpec{}, err
	}
	if p.LoadQ < 0 || p.StoreQ < 0 || p.IQ < 0 || p.Jitter < 0 {
		return RunSpec{}, errors.New("loadq, storeq, iq and jitter must be >= 0 (0 = the default)")
	}
	cfg := p.Config()
	cfg.Bypass = cfg.Bypass || bypass
	if err := cfg.Validate(); err != nil {
		return RunSpec{}, err
	}
	return RunSpec{Arch: Arch(core), Cfg: cfg}, nil
}

// grid runs every program under every spec as one RunBatch and returns the
// results by position: out[i][k] is programs[i] run under runs[k].
func (s *Suite) grid(ctx context.Context, programs []*workload.Program, runs []RunSpec) ([][]*sim.Result, error) {
	jobs := make([]BatchJob, 0, len(programs)*len(runs))
	for _, p := range programs {
		for _, r := range runs {
			jobs = append(jobs, BatchJob{Program: p, RunSpec: r})
		}
	}
	flat, err := s.RunBatch(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(programs))
	for i := range out {
		out[i] = flat[i*len(runs) : (i+1)*len(runs)]
	}
	return out, nil
}
