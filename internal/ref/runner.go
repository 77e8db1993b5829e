package ref

import (
	"decvec/internal/isa"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// Runner is a reusable REF simulation arena: the machine's scoreboards,
// memory system and statistics kept alive across runs. A zero Runner is
// ready to use; every run resets the machine in place (see the Reset
// contract in internal/sim/arena.go), so a recorder-off steady-state run
// performs no heap allocation. A Runner is not safe for concurrent use;
// pool idle Runners in a sim.RunPool.
type Runner struct {
	m machine
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner { return &Runner{} }

// Run simulates the trace under cfg on the pooled machine and returns a
// freshly allocated result (safe to retain; never aliases Runner state).
func (r *Runner) Run(src *trace.Slice, cfg sim.Config) (*sim.Result, error) {
	res := new(sim.Result)
	if err := r.runInto(res, src, cfg, nil, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto simulates the trace under cfg, overwriting every field of res.
// A warmed (res, Runner) pair runs without allocating.
func (r *Runner) RunInto(res *sim.Result, src *trace.Slice, cfg sim.Config) error {
	return r.runInto(res, src, cfg, nil, nil)
}

// RunRecordedInto is RunInto with an optional event recorder. Recording is
// passive: res is bit-identical to a recorder-off run.
func (r *Runner) RunRecordedInto(res *sim.Result, src *trace.Slice, cfg sim.Config, rec *sim.Recorder) error {
	return r.runInto(res, src, cfg, nil, rec)
}

func (r *Runner) runInto(res *sim.Result, src *trace.Slice, cfg sim.Config, hook func(in *isa.Inst, issued int64), rec *sim.Recorder) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := &r.m
	m.reset(cfg)
	m.rec = rec
	now := m.run(src.Insts, hook)
	*res = sim.Result{
		Arch:    "REF",
		Config:  cfg,
		Cycles:  now,
		States:  m.states,
		Counts:  m.counts,
		Traffic: m.traffic,
		Stalls:  m.stalls,

		ScalarCacheHits:   m.cache.Hits,
		ScalarCacheMisses: m.cache.Misses,
	}
	return nil
}

// reset restores the machine to power-on state for a new run under cfg,
// reusing the memory-system allocations when their geometry still matches.
// The observable behaviour after reset is bit-identical to a fresh machine,
// which the arena-reuse equivalence suite pins.
func (m *machine) reset(cfg sim.Config) {
	m.cfg = cfg
	m.bus.Init(cfg.MemPorts)
	m.cache.Init(cfg.ScalarCacheLines, cfg.ScalarCacheLineBytes)
	m.aReady = [isa.NumARegs]int64{}
	m.sReady = [isa.NumSRegs]int64{}
	m.vRegs = [isa.NumVRegs]vreg{}
	m.fu1Busy, m.fu2Busy = 0, 0
	m.states = sim.StateStats{}
	m.traffic = sim.MemTraffic{}
	m.counts = sim.Counts{}
	m.stalls = sim.StallCounts{}
	m.rec = nil
	m.maxDone = 0
}
