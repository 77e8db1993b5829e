// Package ooo implements an out-of-order issue, register-renaming variant
// of the reference vector architecture — the comparison the paper names as
// its future work (§8: "we are now currently working in the comparison of
// decoupling with techniques such as out-of-order execution and register
// renaming").
//
// The machine keeps the reference datapath — two pipelined vector units
// (FU1 restricted), one memory port, flexible FU-to-FU and FU-to-store
// chaining, no chaining after vector loads — but replaces the in-order
// single-issue dispatch with a window: instructions enter in order (one per
// cycle), rename their destinations to a physical register pool (removing
// WAW and WAR hazards entirely), and issue oldest-first as soon as their
// operands, functional unit, memory port and memory ordering allow. Memory
// ordering uses the same range-based disambiguation as the DVA: a memory
// instruction may not issue before every older, overlapping memory
// instruction has issued.
package ooo

import (
	"fmt"

	"decvec/internal/disamb"
	"decvec/internal/isa"
	"decvec/internal/mem"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// Config extends the shared simulator configuration with the out-of-order
// parameters.
type Config struct {
	sim.Config
	// Window is the number of in-flight instructions the issue logic can
	// choose from. The reference architecture is the degenerate Window=1.
	Window int
	// PhysRegs is the size of the vector physical register pool renaming
	// draws from (the architectural file has 8). Fetch stalls when no
	// physical register is free.
	PhysRegs int
}

// DefaultConfig returns an out-of-order configuration with a 16-entry
// window and 32 physical vector registers at the given latency.
func DefaultConfig(latency int64) Config {
	return Config{Config: sim.DefaultConfig(latency), Window: 16, PhysRegs: 32}
}

// Validate extends the base validation.
func (c *Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Window < 1 {
		return fmt.Errorf("ooo: window %d < 1", c.Window)
	}
	if c.PhysRegs < isa.NumVRegs {
		return fmt.Errorf("ooo: %d physical registers < %d architectural", c.PhysRegs, isa.NumVRegs)
	}
	return nil
}

// value describes a renamed result: when it starts being produced, when it
// completes, and whether consumers may chain.
type value struct {
	start     int64
	ready     int64
	chainable bool
	valid     bool
}

// wentry is one window entry.
type wentry struct {
	in     *isa.Inst
	issued bool
	// src values are snapshot at rename time (pointing at physical
	// values), so later writers of the same architectural register can
	// never be confused with them.
	src1, src2, data *value
	// dst is the physical value this instruction produces (nil for stores
	// and branches).
	dst *value
	// rng is the memory range for memory ordering (memory classes only).
	rng disamb.Range
	// mem and load cache the instruction's class tests for the per-cycle
	// memory-ordering scan.
	mem, load bool
	// phys is the physical register index held by dst (for release).
	phys int
}

type machine struct {
	cfg   Config
	bus   mem.Bus
	cache mem.Cache
	now   int64

	// insts is the trace; insts[next] is the next instruction to fetch.
	insts []isa.Inst
	next  int

	// win is the issue window as a fixed ring buffer: the wLen live
	// entries, oldest first, are win[wHead], win[wHead+1], ... modulo
	// len(win). Entries are stored by value and recycled in place, so the
	// steady-state dispatch loop never allocates a window entry.
	win   []wentry
	wHead int
	wLen  int

	// arena hands out renamed values. Values outlive their window entry
	// (source snapshots and the rename tables keep them), so they cannot be
	// recycled with the ring; the arena amortizes their allocation instead.
	arena valueArena

	// Rename state.
	vRename  [isa.NumVRegs]*value
	sValues  [isa.NumSRegs]*value
	aValues  [isa.NumARegs]*value
	freePhys int

	fu1Busy, fu2Busy int64

	states  sim.StateStats
	counts  sim.Counts
	traffic sim.MemTraffic

	maxDone      int64
	lastProgress int64

	// Wake wheel (see sched.go) and the action counter tick uses to detect
	// that a step function did something.
	wheel         sim.Wheel
	progressCount int64
}

var zeroValue = value{valid: true, chainable: false}

// valueArena allocates values in chunks so the dispatch loop performs one
// heap allocation per chunk instead of one per renamed destination. Within a
// run spent values are never returned — a value's lifetime is data-dependent
// (source snapshots keep it past retirement) — but once a run has completed
// nothing references into the chunks, so a pooled machine recycles all of
// them with reset instead of leaving them to the garbage collector.
type valueArena struct {
	chunks [][]value
	// The next value handed out is chunks[ci][vi].
	ci, vi int
}

const valueChunk = 1024

func (a *valueArena) alloc() *value {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]value, valueChunk))
	}
	v := &a.chunks[a.ci][a.vi]
	if a.vi++; a.vi == valueChunk {
		a.ci++
		a.vi = 0
	}
	return v
}

// reset recycles every chunk for the next run, zeroing exactly the slots the
// previous run used so a recycled value is indistinguishable from a fresh
// one. Only safe between runs, when nothing references into the chunks.
func (a *valueArena) reset() {
	var zero value
	for i := 0; i < len(a.chunks); i++ {
		if i > a.ci {
			break
		}
		n := valueChunk
		if i == a.ci {
			n = a.vi
		}
		c := a.chunks[i]
		for j := 0; j < n; j++ {
			c[j] = zero
		}
	}
	a.ci, a.vi = 0, 0
}

// Run simulates the trace on the out-of-order vector architecture.
func Run(src *trace.Slice, cfg Config) (*sim.Result, error) {
	var r Runner
	res := new(sim.Result)
	if err := r.RunInto(res, src, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// declint:hotpath
func (m *machine) run() error {
	window := m.cfg.DeadlockWindow(64)
	fast := !m.cfg.SlowTick
	for {
		if fast {
			m.tick(oFetch)
			m.tick(oIssue)
			m.tick(oRetire)
		} else {
			m.fetch()
			m.issueOne()
			m.retire()
		}
		if m.finished() {
			return nil
		}
		m.sample()
		progressed := m.lastProgress == m.now
		m.now++
		if progressed {
			continue
		}
		// The machine may step through deadline without progress; the
		// cycle after it is a deadlock, in both modes (see sim.Wheel).
		deadline := m.lastProgress + window
		if m.now > deadline {
			return &sim.DeadlockError{Core: "OOO", Cycle: m.now, LastProgress: m.lastProgress, Window: window,
				State: fmt.Sprintf("window %d entries", m.wLen)}
		}
		// Idle skip: on a progress-free cycle every dirty bit is clear (bits
		// are only raised by acting steps, and each unit's tick consumed any
		// bit left from the previous cycle), so the machine repeats the cycle
		// verbatim until the earliest wake time — jump there, accounting the
		// constant (FU2, FU1, LD) state in bulk. SlowTick keeps the plain
		// per-cycle loop as the equivalence suite's reference mode.
		if fast {
			if h := m.nextWake(deadline); h > m.now {
				m.states.ObserveN(sim.MakeState(m.now < m.fu2Busy, m.now < m.fu1Busy, m.bus.BusyAt(m.now)), h-m.now)
				m.now = h
			}
		}
	}
}

func (m *machine) progress() {
	m.lastProgress = m.now
	m.progressCount++
}

func (m *machine) finished() bool {
	if m.next < len(m.insts) || m.wLen > 0 {
		return false
	}
	return m.now >= m.maxDone
}

func (m *machine) sample() {
	m.states.Observe(sim.MakeState(m.now < m.fu2Busy, m.now < m.fu1Busy, m.bus.BusyAt(m.now)))
}

func (m *machine) done(c int64) {
	if c > m.maxDone {
		m.maxDone = c
	}
}

// winAt returns the i-th oldest live window entry (0 <= i < m.wLen).
func (m *machine) winAt(i int) *wentry {
	return &m.win[(m.wHead+i)%len(m.win)]
}

// fetch renames and inserts at most one instruction per cycle.
func (m *machine) fetch() {
	if m.next >= len(m.insts) || m.wLen >= m.cfg.Window {
		return
	}
	in := &m.insts[m.next]
	needsPhys := !in.Class.IsStore() && in.Dst.Kind == isa.RegV
	if needsPhys && m.freePhys == 0 {
		return // no physical register: fetch stalls
	}
	// Recycle the ring slot in place; the previous occupant retired long ago.
	e := m.winAt(m.wLen)
	*e = wentry{in: in}
	// Source snapshot (renaming: later redefinitions cannot disturb it).
	e.src1 = m.lookup(in.Src1)
	e.src2 = m.lookup(in.Src2)
	if in.Class.IsStore() || in.Class == isa.ClassBranch {
		e.data = m.lookup(in.Dst)
	}
	if in.Class.IsMemory() {
		e.rng = disamb.RangeOf(in)
		e.mem = true
		e.load = in.Class.IsLoad()
	}
	// Destination rename.
	if needsPhys {
		m.freePhys--
		e.dst = m.arena.alloc()
		m.vRename[in.Dst.Idx] = e.dst
	} else if !in.Class.IsStore() && in.Dst.Kind != isa.RegNone {
		e.dst = m.arena.alloc()
		switch in.Dst.Kind {
		case isa.RegS:
			m.sValues[in.Dst.Idx] = e.dst
		case isa.RegA:
			m.aValues[in.Dst.Idx] = e.dst
		default: // declint:nonexhaustive — RegNone is excluded by the enclosing if; RegV takes the needsPhys rename path
		}
	}
	m.wLen++
	m.next++
	m.counts.Add(in)
	m.progress()
}

func (m *machine) lookup(r isa.Reg) *value {
	switch r.Kind {
	case isa.RegV:
		return m.vRename[r.Idx]
	case isa.RegS:
		return m.sValues[r.Idx]
	case isa.RegA:
		return m.aValues[r.Idx]
	default: // declint:nonexhaustive — RegNone operands read as an always-ready zero value
		return &zeroValue
	}
}

// srcReady reports whether a source value can begin to be consumed now.
func (m *machine) srcReady(v *value) bool {
	if v == nil {
		return true
	}
	if !v.valid {
		return false // producer has not issued yet
	}
	if v.chainable {
		return v.start+m.cfg.ChainDelay <= m.now
	}
	return v.ready <= m.now
}

// memOrderOK reports whether every older overlapping memory instruction has
// issued.
func (m *machine) memOrderOK(idx int) bool {
	e := m.winAt(idx)
	eLoad := e.load
	for j := 0; j < idx; j++ {
		o := m.winAt(j)
		if o.issued || !o.mem {
			continue
		}
		// Two loads may reorder freely; anything involving a store may not
		// when the ranges overlap.
		if eLoad && o.load {
			continue
		}
		if e.rng.Overlaps(o.rng) {
			return false
		}
	}
	return true
}

// issueOne issues the oldest ready instruction, if any (one per cycle, the
// same issue bandwidth as the reference architecture).
func (m *machine) issueOne() {
	for idx := 0; idx < m.wLen; idx++ {
		e := m.winAt(idx)
		if e.issued {
			continue
		}
		if m.tryIssue(idx, e) {
			e.issued = true
			m.progress()
			return
		}
	}
}

func (m *machine) tryIssue(idx int, e *wentry) bool {
	in := e.in
	if !m.srcReady(e.src1) || !m.srcReady(e.src2) || !m.srcReady(e.data) {
		return false
	}
	vl := int64(in.VL)
	switch in.Class {
	case isa.ClassNop, isa.ClassVSetVL, isa.ClassVSetVS, isa.ClassBranch:
		m.done(m.now + 1)
		return true

	case isa.ClassScalarALU:
		if e.dst != nil {
			*e.dst = value{start: m.now, ready: m.now + 1, valid: true}
		}
		m.done(m.now + 1)
		return true

	case isa.ClassScalarLoad:
		if !m.memOrderOK(idx) {
			return false
		}
		hit := m.cache.WouldHit(in.Base)
		if !hit && !m.bus.FreeAt(m.now) {
			return false
		}
		m.cache.Lookup(in.Base)
		ready := m.now + 1
		if !hit {
			m.bus.Reserve(m.now, 1)
			m.traffic.LoadElems++
			ready = m.now + 1 + m.cfg.AccessLatency(in.Base, in.Seq)
		}
		if e.dst != nil {
			*e.dst = value{start: m.now, ready: ready, valid: true}
		}
		m.done(ready)
		return true

	case isa.ClassScalarStore:
		if !m.memOrderOK(idx) || !m.bus.FreeAt(m.now) {
			return false
		}
		m.bus.Reserve(m.now, 1)
		m.traffic.StoreElems++
		m.cache.Store(in.Base)
		m.done(m.now + 1)
		return true

	case isa.ClassVectorLoad, isa.ClassGather:
		if !m.memOrderOK(idx) || !m.bus.FreeAt(m.now) {
			return false
		}
		m.bus.Reserve(m.now, vl)
		m.traffic.LoadElems += vl
		*e.dst = value{start: m.now, ready: m.now + m.cfg.AccessLatency(in.Base, in.Seq) + vl, chainable: false, valid: true}
		m.done(e.dst.ready)
		return true

	case isa.ClassVectorStore, isa.ClassScatter:
		if !m.memOrderOK(idx) || !m.bus.FreeAt(m.now) {
			return false
		}
		m.bus.Reserve(m.now, vl)
		m.traffic.StoreElems += vl
		m.invalidateRange(in)
		m.done(m.now + vl)
		return true

	case isa.ClassVectorALU, isa.ClassReduce:
		fu1 := in.Op.FU1Capable() && m.fu1Busy <= m.now
		if !fu1 && m.fu2Busy > m.now {
			return false
		}
		if fu1 {
			m.fu1Busy = m.now + vl
		} else {
			m.fu2Busy = m.now + vl
		}
		if e.dst != nil {
			*e.dst = value{start: m.now, ready: m.now + m.cfg.Depth(in.Op) + vl, chainable: true, valid: true}
			m.done(e.dst.ready)
		}
		m.done(m.now + vl)
		return true

	default:
		panic(fmt.Sprintf("ooo: unhandled class in %s", in))
	}
}

func (m *machine) invalidateRange(in *isa.Inst) {
	if in.Class == isa.ClassScatter {
		return
	}
	m.cache.InvalidateStrided(in.Base, in.Stride*isa.ElemSize, in.VL)
}

// retire removes completed instructions from the head of the window,
// releasing their physical registers. Retirement is in order, so a
// physical register is freed only when its instruction and everything
// older have completed.
func (m *machine) retire() {
	for m.wLen > 0 {
		e := m.winAt(0)
		if !e.issued {
			return
		}
		if e.dst != nil && (!e.dst.valid || e.dst.ready > m.now) {
			return
		}
		if e.dst != nil && e.in.Dst.Kind == isa.RegV {
			m.freePhys++
		}
		m.wHead = (m.wHead + 1) % len(m.win)
		m.wLen--
		m.progress()
	}
}
