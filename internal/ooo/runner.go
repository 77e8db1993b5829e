package ooo

import (
	"fmt"

	"decvec/internal/sim"
	"decvec/internal/trace"
)

// Runner is a reusable OOO simulation arena: the issue window, the renamed
// value chunks, the rename tables and the memory system kept alive across
// runs. A zero Runner is ready to use; every run resets the machine in place
// (see the Reset contract in internal/sim/arena.go). A Runner is not safe
// for concurrent use; pool idle Runners in a sim.RunPool.
type Runner struct {
	m machine
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner { return &Runner{} }

// Run simulates the trace under cfg on the pooled machine and returns a
// freshly allocated result (safe to retain; never aliases Runner state).
func (r *Runner) Run(src *trace.Slice, cfg Config) (*sim.Result, error) {
	res := new(sim.Result)
	if err := r.RunInto(res, src, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto simulates the trace under cfg, overwriting every field of res.
func (r *Runner) RunInto(res *sim.Result, src *trace.Slice, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := &r.m
	m.reset(src, cfg)
	if err := m.run(); err != nil {
		return fmt.Errorf("ooo: on %s: %w", src.Name(), err)
	}
	*res = sim.Result{
		Arch:              "OOO",
		Config:            cfg.Config,
		Cycles:            m.now,
		States:            m.states,
		Counts:            m.counts,
		Traffic:           m.traffic,
		ScalarCacheHits:   m.cache.Hits,
		ScalarCacheMisses: m.cache.Misses,
	}
	return nil
}

// reset restores the machine to power-on state for a new run over src under
// cfg, reusing the window ring, value chunks and memory system when their
// geometry still matches. The observable behaviour after reset is
// bit-identical to a fresh machine, which the arena-reuse equivalence suite
// pins. Stale window-ring entries past wLen need no zeroing: fetch
// overwrites a recycled slot wholesale before any read.
func (m *machine) reset(src *trace.Slice, cfg Config) {
	m.cfg = cfg
	m.bus.Init(cfg.MemPorts)
	m.cache.Init(cfg.ScalarCacheLines, cfg.ScalarCacheLineBytes)
	m.now = 0
	m.insts = src.Insts
	m.next = 0
	if len(m.win) != cfg.Window {
		m.win = make([]wentry, cfg.Window)
	}
	m.wHead, m.wLen = 0, 0
	m.arena.reset()
	for i := range m.vRename {
		m.vRename[i] = &zeroValue
	}
	for i := range m.sValues {
		m.sValues[i] = &zeroValue
	}
	for i := range m.aValues {
		m.aValues[i] = &zeroValue
	}
	m.freePhys = cfg.PhysRegs
	m.fu1Busy, m.fu2Busy = 0, 0
	m.states = sim.StateStats{}
	m.counts = sim.Counts{}
	m.traffic = sim.MemTraffic{}
	m.maxDone, m.lastProgress = 0, 0

	// Wake wheel: every unit due at cycle 0 with no dirty bits —
	// bit-identical to a fresh machine.
	m.wake = [numUnits]int64{}
	m.dirty = 0
	m.progressCount = 0
}
