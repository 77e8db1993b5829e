// Package decvec is a cycle-accurate simulation study of Decoupled Vector
// Architectures (Espasa & Valero, HPCA 1996).
//
// It provides the reference Convex C3400-like vector architecture (REF),
// the decoupled vector architecture (DVA) with its store-to-load bypass
// variant (BYP), the out-of-order register-renaming extension of REF (OOO)
// and the five-resource IDEAL lower bound, driven by synthetic traces
// modeled on the Perfect Club benchmark suite, plus the full experiment
// harness that regenerates every table and figure of the paper.
//
// Quick start:
//
//	w, _ := decvec.LoadWorkload("BDNA")
//	cfg := decvec.DefaultConfig(50) // memory latency in cycles
//	refRes, _ := w.RunREF(cfg)
//	dvaRes, _ := w.RunDVA(cfg)
//	fmt.Printf("speedup %.2f\n", float64(refRes.Cycles)/float64(dvaRes.Cycles))
package decvec

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"

	"decvec/internal/experiments"
	"decvec/internal/ideal"
	"decvec/internal/report"
	"decvec/internal/server"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// Config parametrizes a simulation run: memory latency, pipeline depths,
// queue sizes and the bypass switch. Obtain one from DefaultConfig or
// BypassConfig and adjust fields as needed.
type Config = sim.Config

// Result is the outcome of one simulation run: total cycles, the
// (FU2,FU1,LD) state breakdown, instruction counts, memory traffic, queue
// occupancy histograms and stall diagnostics.
type Result = sim.Result

// State encodes the (FU2, FU1, LD) busy 3-tuple of one cycle; Result.States
// indexes its per-state cycle counts by State.
type State = sim.State

// Recorder collects the cycle-stamped event stream of a run (issues, stalls,
// queue pushes/pops, bus grants, bypasses, flushes). A nil *Recorder disables
// recording at zero cost; recording never changes simulated cycle counts.
type Recorder = sim.Recorder

// Event is one entry of a Recorder's stream.
type Event = sim.Event

// StallReason enumerates the per-unit stall causes of Result.Stalls.
type StallReason = sim.StallReason

// EventKind enumerates the event types of a Recorder's stream.
type EventKind = sim.EventKind

// Event kinds.
const (
	EvIssue     = sim.EvIssue
	EvStall     = sim.EvStall
	EvQueuePush = sim.EvQueuePush
	EvQueuePop  = sim.EvQueuePop
	EvBusGrant  = sim.EvBusGrant
	EvBypass    = sim.EvBypass
	EvFlush     = sim.EvFlush
)

// NewRecorder returns an empty, unbounded event recorder.
func NewRecorder() *Recorder { return sim.NewRecorder() }

// DefaultConfig returns the paper's main DVA configuration (instruction
// queues 16, scalar queues 256, AVDQ 256, VADQ 16) at the given memory
// latency in cycles.
func DefaultConfig(latency int64) Config { return sim.DefaultConfig(latency) }

// BypassConfig returns a §7 bypass configuration "BYP loadQ/storeQ" at the
// given latency.
func BypassConfig(latency int64, loadQ, storeQ int) Config {
	return sim.BypassConfig(latency, loadQ, storeQ)
}

// TraceSource is an in-memory dynamic instruction trace, as produced by
// Workload.Trace, ReadTrace or the tracegen kernels. Every simulator run
// replays it by index, and it must not be modified once built.
type TraceSource = *trace.Slice

// Workload is one benchmark program model.
type Workload struct {
	p *workload.Program
}

// Workloads lists the names of all thirteen Perfect Club program models.
func Workloads() []string {
	names := make([]string, 0, len(workload.All))
	for _, p := range workload.All {
		names = append(names, p.Name)
	}
	return names
}

// SimulatedWorkloads lists the six programs the paper simulates.
func SimulatedWorkloads() []string {
	var names []string
	for _, p := range workload.All {
		if p.Simulated {
			names = append(names, p.Name)
		}
	}
	return names
}

// LoadWorkload returns the named program model (see Workloads).
func LoadWorkload(name string) (*Workload, error) {
	p, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	return &Workload{p: p}, nil
}

// Name returns the program name.
func (w *Workload) Name() string { return w.p.Name }

// Description returns a one-line description of the program model.
func (w *Workload) Description() string { return w.p.Description }

// Trace returns the program's dynamic instruction trace at the given scale
// (1.0 = default, tens of thousands of instructions). Traces are memoized
// per (program, scale); use FreshTrace to force regeneration.
func (w *Workload) Trace(scale float64) *trace.Slice {
	return w.p.CachedTrace(scale)
}

// FreshTrace synthesizes the trace anew, bypassing the memoization cache.
// Generation is deterministic, so the result always equals Trace's.
func (w *Workload) FreshTrace(scale float64) *trace.Slice {
	return w.p.Trace(scale)
}

// Stats returns the Table 1 statistics of the trace at scale 1.
func (w *Workload) Stats() *trace.Stats {
	return trace.Collect(w.p.CachedTrace(1))
}

// RunREF simulates the workload on the reference vector architecture.
func (w *Workload) RunREF(cfg Config) (*Result, error) {
	return RunSource(w.p.CachedTrace(1), "REF", cfg)
}

// RunDVA simulates the workload on the decoupled vector architecture
// (set cfg.Bypass, or use BypassConfig, for the bypass variant).
func (w *Workload) RunDVA(cfg Config) (*Result, error) {
	return RunSource(w.p.CachedTrace(1), "DVA", cfg)
}

// RunOOO simulates the workload on the out-of-order, register-renaming
// extension of the reference architecture (the paper's §8 comparison) with
// the given issue-window and physical vector-register pool sizes.
func (w *Workload) RunOOO(cfg Config, window, physRegs int) (*Result, error) {
	spec := experiments.RunSpec{Arch: experiments.OOO, Cfg: cfg, Window: window, PhysRegs: physRegs}
	return experiments.Simulate(w.p.CachedTrace(1), spec, nil)
}

// IdealCycles returns the §5 five-resource lower bound on execution time.
func (w *Workload) IdealCycles() int64 {
	return ideal.Compute(w.p.CachedTrace(1)).Cycles
}

// WriteTrace serializes a trace to w in the compact binary format (the
// role Dixie trace files played in the paper's methodology).
func WriteTrace(w io.Writer, src *trace.Slice) error {
	return trace.Write(w, src)
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*trace.Slice, error) {
	return trace.Read(r)
}

// IdealCyclesOf returns the §5 five-resource lower bound for an arbitrary
// trace source.
func IdealCyclesOf(src *trace.Slice) int64 {
	return ideal.Compute(src).Cycles
}

// RunSource simulates an arbitrary trace source (for example one built
// with the tracegen kernels) on REF, DVA or BYP, named in any letter case.
// Runs reuse pooled machines, so back-to-back runs do not rebuild one.
func RunSource(src *trace.Slice, arch string, cfg Config) (*Result, error) {
	return RunSourceRecorded(src, arch, cfg, nil)
}

// RunSourceRecorded is RunSource with an event recorder attached; pass nil
// to disable recording (equivalent to RunSource).
func RunSourceRecorded(src *trace.Slice, arch string, cfg Config, rec *Recorder) (*Result, error) {
	spec, err := experiments.ResolveArch(arch, cfg)
	if err != nil {
		return nil, fmt.Errorf("decvec: %w", err)
	}
	return experiments.Simulate(src, spec, rec)
}

// MetricsJSON renders a result — cycle counts, state breakdown, stall
// attribution and queue occupancy — as indented machine-readable JSON.
func MetricsJSON(res *Result) ([]byte, error) { return report.MetricsJSON(res) }

// MetricsJSONWithCache is MetricsJSON with the persistent result-cache
// counters attached (the `dvasim -cache -metrics-json` schema).
func MetricsJSONWithCache(res *Result, st CacheStats) ([]byte, error) {
	return report.MetricsJSONWithCache(res, st)
}

// CacheStore is the persistent, content-addressed store for simulation
// results (see internal/simcache). Attach one to Suite.Disk to make repeat
// runs skip simulation entirely.
type CacheStore = simcache.Store

// CacheOptions configures OpenCache. MaxBytes is the GC size cap: 0 applies
// the 512 MiB default, and a negative value means unbounded (CacheFlags maps
// the commands' "-cache-max-mb 0 = unbounded" onto it).
type CacheOptions = simcache.Options

// CacheStats are a store's lifetime counters.
type CacheStats = simcache.Stats

// OpenCache creates (if needed) and opens the persistent result cache
// rooted at dir.
func OpenCache(dir string, opts CacheOptions) (*CacheStore, error) {
	return simcache.Open(dir, opts)
}

// DefaultCacheDir returns the conventional cache location
// ($XDG_CACHE_HOME/decvec), or "" when the environment defines none.
func DefaultCacheDir() string { return simcache.DefaultDir() }

// CacheFlags are the persistent-cache flags dvabench, dvasim and dvad share:
// -cache, -cache-dir, -cache-max-mb and -cache-verify.
type CacheFlags struct {
	mode, dir string
	maxMB     int64
	// Verify is -cache-verify, the fraction of cache hits re-simulated and
	// byte-compared.
	Verify float64
}

// RegisterCacheFlags defines the cache flags on fs. gcWhen completes the
// -cache-max-mb help: when the size cap is enforced.
func RegisterCacheFlags(fs *flag.FlagSet, gcWhen string) *CacheFlags {
	c := new(CacheFlags)
	fs.StringVar(&c.mode, "cache", "on", "persistent result cache: on or off")
	fs.StringVar(&c.dir, "cache-dir", "", "result cache directory (default $XDG_CACHE_HOME/decvec)")
	fs.Int64Var(&c.maxMB, "cache-max-mb", 512, "result cache size cap in MiB, "+gcWhen+" (0 = unbounded)")
	fs.Float64Var(&c.Verify, "cache-verify", 0, "re-simulate this fraction of cache hits and fail on any mismatch (1 audits every hit)")
	return c
}

// Validate range-checks the parsed flags: -cache-max-mb must be >= 0 and
// -cache-verify a fraction in [0, 1]. Its error is a usage error (exit 2).
func (c *CacheFlags) Validate() error {
	if c.maxMB < 0 {
		return fmt.Errorf("-cache-max-mb must be >= 0 (0 = unbounded), got %d", c.maxMB)
	}
	if !(c.Verify >= 0 && c.Verify <= 1) { // also rejects NaN
		return fmt.Errorf("-cache-verify must be a fraction in [0, 1], got %v", c.Verify)
	}
	return nil
}

// Open opens the store the flags name. It returns nil, to run uncached,
// under -cache=off, or after a warning to stderr prefixed "cmd: " when no
// cache directory is known or the store does not open.
func (c *CacheFlags) Open(stderr io.Writer, cmd string) *CacheStore {
	if c.mode == "off" {
		return nil
	}
	dir := c.dir
	if dir == "" {
		dir = DefaultCacheDir()
	}
	if dir == "" {
		fmt.Fprintf(stderr, "%s: no cache directory available; running uncached (set -cache-dir)\n", cmd)
		return nil
	}
	store, err := OpenCache(dir, c.options())
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v; running uncached\n", cmd, err)
		return nil
	}
	return store
}

// options maps -cache-max-mb onto the store's cap, 0 meaning unbounded.
func (c *CacheFlags) options() CacheOptions {
	if c.maxMB == 0 {
		return CacheOptions{MaxBytes: -1}
	}
	return CacheOptions{MaxBytes: c.maxMB << 20}
}

// CheckScale is the -scale check the commands share: a trace scale factor
// must be finite and > 0. Its error is a usage error (exit 2).
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) { // also rejects NaN
		return fmt.Errorf("-scale must be finite and > 0, got %v", scale)
	}
	return nil
}

// CacheTable renders a store's counters as an ASCII table.
func CacheTable(st CacheStats) string { return report.CacheTable(st) }

// Server is the dvad simulation daemon: an HTTP/JSON front end over an
// embedded Suite, with request coalescing (identical concurrent requests
// share one simulation), admission control (bounded concurrency + bounded
// wait queue, 429 on overflow), per-request timeouts, periodic cache GC and
// graceful drain-then-GC shutdown. See DESIGN.md "Serving".
type Server = server.Server

// ServerConfig parametrizes NewServer.
type ServerConfig = server.Config

// ServerStats is the machine-readable /statsz schema.
type ServerStats = report.ServerMetric

// NewServer returns a simulation daemon over a fresh suite. Callers must
// Shutdown the server to stop its background GC loop and run the final
// cache GC.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// ServerTable renders the daemon counters as an ASCII table (the shutdown
// summary companion to CacheTable).
func ServerTable(st ServerStats) string { return report.ServerTable(st) }

// WriteTraceEvents writes a recorded event stream as a Trace Event Format
// JSON file loadable in chrome://tracing or Perfetto.
func WriteTraceEvents(w io.Writer, res *Result, rec *Recorder) error {
	return report.WriteTraceEvents(w, res, rec)
}

// StallTable renders the nonzero stall causes of a result as an ASCII table.
func StallTable(res *Result) string { return report.StallTable(res) }

// QueueTable renders the per-queue occupancy stats of a result as an ASCII
// table.
func QueueTable(res *Result) string { return report.QueueTable(res) }

// ExperimentNames lists the regenerable paper experiments.
func ExperimentNames() []string {
	names := make([]string, 0, len(experimentRunners))
	for n := range experimentRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// experiment runs one paper experiment on a suite and renders its report.
type experiment func(ctx context.Context, s *Suite) (string, error)

// rendered pairs an experiment driver with the renderer of its result.
func rendered[R any](run func(context.Context, *Suite) (R, error), render func(R) string) experiment {
	return func(ctx context.Context, s *Suite) (string, error) {
		r, err := run(ctx, s)
		if err != nil {
			return "", err
		}
		return render(r), nil
	}
}

var experimentRunners = map[string]experiment{
	"table1": rendered(experiments.Table1, report.Table1),
	"fig1":   rendered(experiments.Figure1, report.Figure1),
	"fig3":   rendered(defaultSweep, report.Figure3),
	"fig4":   rendered(defaultSweep, report.Figure4),
	"fig5":   rendered(defaultSweep, report.Figure5),
	"fig6":   rendered(experiments.Figure6, report.Figure6),
	"fig7": rendered(func(ctx context.Context, s *Suite) (*experiments.Figure7Result, error) {
		return experiments.Figure7(ctx, s, nil)
	}, report.Figure7),
	"fig8": rendered(func(ctx context.Context, s *Suite) (*experiments.Figure8Result, error) {
		return experiments.Figure8(ctx, s, 30)
	}, report.Figure8),
	"extension-conflicts": rendered(func(ctx context.Context, s *Suite) (*experiments.ConflictsResult, error) {
		return experiments.ExtensionConflicts(ctx, s, 20, nil)
	}, report.ExtensionConflicts),
	"extension-ports": rendered(func(ctx context.Context, s *Suite) (*experiments.PortsResult, error) {
		return experiments.ExtensionPorts(ctx, s, nil)
	}, report.ExtensionPorts),
	"extension-ooo": rendered(func(ctx context.Context, s *Suite) (*experiments.ExtensionOOOResult, error) {
		return experiments.ExtensionOOO(ctx, s, nil)
	}, report.ExtensionOOO),
	"ablation-iq":   ablationAt50(experiments.AblationIQ),
	"ablation-vsq":  ablationAt50(experiments.AblationVSQ),
	"ablation-avdq": ablationAt50(experiments.AblationAVDQ),
	"ablation-qmov": ablationAt50(experiments.AblationQMov),
}

// defaultSweep is the latency sweep figures 3, 4 and 5 share.
func defaultSweep(ctx context.Context, s *Suite) (*experiments.SweepResult, error) {
	return experiments.Sweep(ctx, s, nil)
}

// ablationAt50 runs a queue-sizing ablation at the paper's 50-cycle latency.
func ablationAt50(run func(context.Context, *Suite, int64) (*experiments.AblationResult, error)) experiment {
	return rendered(func(ctx context.Context, s *Suite) (*experiments.AblationResult, error) {
		return run(ctx, s, 50)
	}, report.Ablation)
}

// Suite caches simulation runs across experiments.
type Suite = experiments.Suite

// NewSuite returns a fresh experiment suite at the given trace scale.
func NewSuite(scale float64) *Suite { return experiments.NewSuite(scale) }

// RunExperimentCtx regenerates one paper experiment against a shared
// suite, honoring context cancellation: every simulation, warm fan-out and
// coalesced wait underneath threads ctx end-to-end.
func RunExperimentCtx(ctx context.Context, s *Suite, name string) (string, error) {
	fn, ok := experimentRunners[name]
	if !ok {
		return "", fmt.Errorf("decvec: unknown experiment %q (have %v)", name, ExperimentNames())
	}
	return fn(ctx, s)
}

// SweepGridSpec names a (program × arch × latency × queue) parameter grid
// by its dimension values; empty dimensions take the paper defaults. Its
// JSON form is the -grid file format of cmd/dvasweep.
type SweepGridSpec = sweep.GridSpec

// SweepPlan is a compiled grid, enumerated cell-by-cell without ever
// materializing the full product.
type SweepPlan = sweep.Plan

// NewSweepPlan compiles and validates a grid spec.
func NewSweepPlan(spec SweepGridSpec) (*SweepPlan, error) { return sweep.NewPlan(spec) }

// SweepExecutor drains sweep shards for one worker; see LocalExecutor and
// RemoteExecutor.
type SweepExecutor = sweep.Executor

// SweepOptions tune a coordinated sweep; the zero value is
// production-ready.
type SweepOptions = sweep.Options

// SweepStats is the sweep-level outcome summary: cells completed, cells
// re-sharded after worker failures, dispatch rounds, and per-worker
// cache-hit ratios.
type SweepStats = sweep.Stats

// RemoteExecutorOptions tune a RemoteExecutor.
type RemoteExecutorOptions = sweep.RemoteOptions

// LocalExecutor runs sweep shards in-process through the suite — the
// fallback when no dvad workers are configured.
func LocalExecutor(name string, s *Suite) SweepExecutor { return sweep.NewLocal(name, s) }

// RemoteExecutor runs sweep shards on the dvad worker at baseURL.
func RemoteExecutor(baseURL string, opts RemoteExecutorOptions) SweepExecutor {
	return sweep.NewRemote(baseURL, opts)
}

// RunSweep shards the plan's cells across the executors by cache-key
// prefix (so repeat sweeps land each cell on the worker whose disk cache
// already holds it), survives worker failures by re-sharding, and merges
// the results deterministically in plan order: out[i] is plan cell i's
// result wherever it ran. Partial failures follow the RunBatch contract —
// completed results come back alongside the joined error.
func RunSweep(ctx context.Context, plan *SweepPlan, execs []SweepExecutor, opts SweepOptions) ([]*Result, SweepStats, error) {
	return sweep.Run(ctx, plan, execs, opts)
}

// SweepTable renders a sweep summary as ASCII tables, one row per worker.
func SweepTable(st SweepStats) string { return report.SweepTable(st) }

// SweepStatsJSON renders a sweep summary as indented JSON.
func SweepStatsJSON(st SweepStats) ([]byte, error) { return report.SweepJSON(st) }

// EncodeResult writes the canonical binary result encoding — the format
// the persistent cache stores and the sweep protocol streams, and the one
// to hash when checking two runs for byte-identity.
func EncodeResult(w io.Writer, res *Result) error { return sim.EncodeResult(w, res) }
