// Package ref implements the reference vector architecture of the paper's
// §2.1: a close model of the Convex C3400. One in-order dispatch unit
// issues at most one instruction per cycle; the vector part has two fully
// pipelined computation units (FU1 restricted, FU2 general) and one memory
// port. Chaining between functional units and from functional units to the
// store unit is fully flexible; there is no chaining after a vector load —
// a consumer of a loaded register waits for the load's last element.
package ref

import (
	"fmt"

	"decvec/internal/isa"
	"decvec/internal/mem"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// vreg is the scoreboard entry of one vector register.
type vreg struct {
	// writeStart is when the in-flight (or last) writer started producing
	// elements; writeReady is when the full register is valid.
	writeStart int64
	writeReady int64
	// chainable is true when the writer delivers elements one per cycle
	// from writeStart (functional units and, in the DVA, QMOV units);
	// false for memory loads, which may return elements out of order.
	chainable bool
	// readBusyUntil is the latest cycle at which an in-flight reader is
	// still consuming the register (WAR hazard for the next writer).
	readBusyUntil int64
}

// machine is the simulation state of one run.
type machine struct {
	cfg   sim.Config
	bus   mem.Bus
	cache mem.Cache

	aReady [isa.NumARegs]int64
	sReady [isa.NumSRegs]int64
	vRegs  [isa.NumVRegs]vreg

	fu1Busy int64 // cycle until which FU1 is occupied
	fu2Busy int64

	states  sim.StateStats
	traffic sim.MemTraffic
	counts  sim.Counts
	stalls  sim.StallCounts
	// rec is the optional event recorder; nil when disabled.
	rec *sim.Recorder

	// maxDone tracks the latest completion event of anything in flight; the
	// run ends there.
	maxDone int64
}

// Run simulates the trace on the reference architecture under cfg and
// returns the measured result.
func Run(src *trace.Slice, cfg sim.Config) (*sim.Result, error) {
	return simulate(src, cfg, nil)
}

// RunRecorded is Run with an optional event recorder. Recording is passive:
// the returned result is bit-identical to a plain Run; the recorder
// additionally collects issue, stall and bus-grant events.
func RunRecorded(src *trace.Slice, cfg sim.Config, rec *sim.Recorder) (*sim.Result, error) {
	return simulate(src, cfg, rec)
}

func simulate(src *trace.Slice, cfg sim.Config, rec *sim.Recorder) (*sim.Result, error) {
	var r Runner
	res := new(sim.Result)
	if err := r.runInto(res, src, cfg, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// run is the dispatch loop: it replays the trace instruction by
// instruction and returns the cycle at which the machine drained. The REF
// core is the degenerate one-unit case of the per-unit wake scheduler
// (DESIGN.md §4i): a single in-order dispatch unit whose wake time is the
// closed-form earliestIssue, so the clock jumps straight from issue to
// issue — there is no wheel, no dirty bits, and no per-cycle loop to skip.
//
// declint:hotpath
func (m *machine) run(insts []isa.Inst) int64 {
	var now int64 // earliest cycle the next instruction may issue
	for i := range insts {
		in := &insts[i]
		m.counts.Add(in)
		e, why := m.earliestIssue(in, now)
		if wait := e - now; wait > 0 {
			// The dispatch unit sat idle for wait cycles; attribute them to
			// the binding hazard.
			m.stalls.Add(why, wait)
			if m.rec != nil {
				m.rec.StallN(now, why, wait)
			}
		}
		if m.rec != nil {
			m.rec.Issue(e, sim.ProcREF, in.Seq, in.Class.String())
		}
		m.accountStates(now, e)
		m.issue(in, e)
		// In-order single issue: the next instruction cannot issue in the
		// same cycle.
		m.accountStates(e, e+1)
		now = e + 1
	}
	// Drain: account the tail until the last in-flight operation finishes.
	if m.maxDone > now {
		m.accountStates(now, m.maxDone)
		now = m.maxDone
	}
	return now
}

// scalarReady returns the cycle at which a scalar (A/S) register is valid.
func (m *machine) scalarReady(r isa.Reg) int64 {
	switch r.Kind {
	case isa.RegA:
		return m.aReady[r.Idx]
	case isa.RegS:
		return m.sReady[r.Idx]
	default: // declint:nonexhaustive — RegNone has no readiness and vector readiness lives in srcReadyVector
		return 0
	}
}

func (m *machine) setScalarReady(r isa.Reg, c int64) {
	switch r.Kind {
	case isa.RegA:
		m.aReady[r.Idx] = c
	case isa.RegS:
		m.sReady[r.Idx] = c
	default: // declint:nonexhaustive — only scalar registers have scalar readiness; RegNone/RegV writes land elsewhere
	}
	m.done(c)
}

func (m *machine) done(c int64) {
	if c > m.maxDone {
		m.maxDone = c
	}
}

// srcReadyVector returns the earliest cycle a consumer may start reading
// vector register r, honouring chaining rules.
func (m *machine) srcReadyVector(r isa.Reg) int64 {
	v := &m.vRegs[r.Idx]
	if v.chainable {
		// Flexible chaining: the consumer may start any time after the
		// producer, trailing by the chain delay.
		return v.writeStart + m.cfg.ChainDelay
	}
	return v.writeReady
}

// srcReady returns the data-hazard bound for one source operand.
func (m *machine) srcReady(r isa.Reg) int64 {
	switch r.Kind {
	case isa.RegNone:
		return 0
	case isa.RegV:
		return m.srcReadyVector(r)
	default: // declint:nonexhaustive — RegA and RegS share the scalar scoreboard
		return m.scalarReady(r)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// bump raises *e to cand when cand is later, recording the reason; ties
// keep the earlier-diagnosed cause, exactly mirroring max64's "first
// contributor wins" semantics so issue cycles are unchanged by attribution.
func bump(e *int64, why *sim.StallReason, cand int64, r sim.StallReason) {
	if cand > *e {
		*e = cand
		*why = r
	}
}

// earliestIssue computes the first cycle >= lb at which the instruction can
// issue, considering data, structural and register-file hazards. The second
// result attributes the wait (e - lb, if any) to the binding hazard.
func (m *machine) earliestIssue(in *isa.Inst, lb int64) (int64, sim.StallReason) {
	e := lb
	why := sim.StallRefData
	// Source operands.
	bump(&e, &why, m.srcReady(in.Src1), sim.StallRefData)
	bump(&e, &why, m.srcReady(in.Src2), sim.StallRefData)
	// Stores read their data through Dst.
	if in.Class.IsStore() || in.Class == isa.ClassBranch {
		bump(&e, &why, m.srcReady(in.Dst), sim.StallRefData)
	}
	// Gathers/scatters read an index vector through Src1 (already covered)
	// and their base from Src2 when present.

	// Destination hazards.
	if !in.Class.IsStore() && in.Dst.Kind == isa.RegV {
		v := &m.vRegs[in.Dst.Idx]
		// WAW: the previous writer must have completed; WAR: in-flight
		// readers must have drained the old value.
		bump(&e, &why, v.writeReady, sim.StallRefDst)
		bump(&e, &why, v.readBusyUntil, sim.StallRefDst)
	}
	if !in.Class.IsStore() && (in.Dst.Kind == isa.RegA || in.Dst.Kind == isa.RegS) {
		bump(&e, &why, m.scalarReady(in.Dst), sim.StallRefDst)
	}

	// Structural hazards.
	switch in.Class {
	case isa.ClassVectorALU, isa.ClassReduce:
		bump(&e, &why, m.fuAvail(in.Op, e), sim.StallRefFU)
	case isa.ClassVectorLoad, isa.ClassVectorStore, isa.ClassGather, isa.ClassScatter:
		bump(&e, &why, m.bus.FreeCycle(), sim.StallRefBus)
	case isa.ClassScalarLoad, isa.ClassScalarStore:
		// Cache hits need no bus; conservatively we cannot know hit/miss
		// before probing at issue, but the probe result is deterministic,
		// so peek: misses and stores need the bus.
		if in.Class == isa.ClassScalarStore || !m.peekHit(in.Base) {
			bump(&e, &why, m.bus.FreeCycle(), sim.StallRefBus)
		}
	default: // declint:nonexhaustive — nop, scalar ALU, branch and vsetvl/vsetvs contend for no structural resource
	}
	return e, why
}

// peekHit probes the cache without updating it.
func (m *machine) peekHit(addr uint64) bool {
	// Lookup allocates on miss, so run it on a throwaway check: replicate
	// the index computation via a second probe-free path. To keep the
	// cache encapsulated we accept a tiny model simplification: probing at
	// earliest-issue time equals probing at issue time because nothing
	// between them can change the cache (dispatch is blocked).
	return m.cache.WouldHit(addr)
}

// fuAvail returns the earliest cycle >= e at which some eligible functional
// unit is free, preferring FU1 for FU1-capable work so FU2 stays available
// for multiplies.
func (m *machine) fuAvail(op isa.Opcode, e int64) int64 {
	if !op.FU1Capable() {
		return m.fu2Busy
	}
	// Either unit; take the one that frees first, preferring FU1 on ties.
	if m.fu1Busy <= m.fu2Busy {
		return m.fu1Busy
	}
	return m.fu2Busy
}

// pickFU selects the unit for a vector computation issuing at cycle e and
// marks it busy for vl cycles. FU1-capable work always prefers FU1 when it
// is free, keeping FU2 available for multiplies, divisions and square
// roots. It returns true when FU1 was used.
func (m *machine) pickFU(op isa.Opcode, e int64, vl int64) bool {
	if op.FU1Capable() && m.fu1Busy <= e {
		m.fu1Busy = e + vl
		m.done(m.fu1Busy)
		return true
	}
	m.fu2Busy = e + vl
	m.done(m.fu2Busy)
	return false
}

// issue applies the effects of issuing the instruction at cycle e.
func (m *machine) issue(in *isa.Inst, e int64) {
	vl := int64(in.VL)
	switch in.Class {
	case isa.ClassNop, isa.ClassVSetVL, isa.ClassVSetVS, isa.ClassBranch:
		// One cycle through the scalar part; no architectural timing state.

	case isa.ClassScalarALU:
		if in.Dst.Kind != isa.RegNone {
			m.setScalarReady(in.Dst, e+1)
		}

	case isa.ClassScalarLoad:
		if m.cache.Lookup(in.Base) {
			m.setScalarReady(in.Dst, e+1)
		} else {
			m.bus.Reserve(e, 1)
			m.traffic.LoadElems++
			m.setScalarReady(in.Dst, e+1+m.cfg.AccessLatency(in.Base, in.Seq))
		}

	case isa.ClassScalarStore:
		m.bus.Reserve(e, 1)
		m.traffic.StoreElems++
		m.cache.Store(in.Base)
		m.done(e + 1)

	case isa.ClassVectorLoad, isa.ClassGather:
		m.bus.Reserve(e, vl)
		m.traffic.LoadElems += vl
		v := &m.vRegs[in.Dst.Idx]
		v.writeStart = e
		v.writeReady = e + m.cfg.AccessLatency(in.Base, in.Seq) + vl
		v.chainable = false
		m.done(v.writeReady)

	case isa.ClassVectorStore, isa.ClassScatter:
		m.bus.Reserve(e, vl)
		m.traffic.StoreElems += vl
		v := &m.vRegs[in.Dst.Idx]
		v.readBusyUntil = max64(v.readBusyUntil, e+vl)
		m.invalidateRange(in)
		m.done(e + vl)

	case isa.ClassVectorALU:
		m.pickFU(in.Op, e, vl)
		m.markVectorRead(in.Src1, e, vl)
		m.markVectorRead(in.Src2, e, vl)
		v := &m.vRegs[in.Dst.Idx]
		v.writeStart = e
		v.writeReady = e + m.cfg.Depth(in.Op) + vl
		v.chainable = true
		m.done(v.writeReady)

	case isa.ClassReduce:
		m.pickFU(in.Op, e, vl)
		m.markVectorRead(in.Src1, e, vl)
		m.markVectorRead(in.Src2, e, vl)
		m.setScalarReady(in.Dst, e+m.cfg.Depth(in.Op)+vl)

	default:
		panic(fmt.Sprintf("ref: unhandled class in %s", in))
	}
}

func (m *machine) markVectorRead(r isa.Reg, e, vl int64) {
	if r.Kind == isa.RegV {
		v := &m.vRegs[r.Idx]
		v.readBusyUntil = max64(v.readBusyUntil, e+vl)
	}
}

// invalidateRange drops scalar cache lines covered by a vector store to
// keep the (timing-only) cache model coherent.
func (m *machine) invalidateRange(in *isa.Inst) {
	if in.Class == isa.ClassScatter {
		// Conservatively ignored: the cache holds only scalar data and the
		// workloads never scatter onto scalar-cached addresses.
		return
	}
	m.cache.InvalidateStrided(in.Base, in.Stride*isa.ElemSize, in.VL)
}

// accountStates attributes every cycle of [from, to) to its (FU2, FU1, LD)
// state. Unit occupancy cannot change inside the window (no issues happen
// there), so the window is split only at the units' busy-until boundaries.
// With SlowTick set it instead observes every cycle individually — the
// reference mode the equivalence suite checks the windowed accounting
// against (see DESIGN.md "Idle-skip advancement").
func (m *machine) accountStates(from, to int64) {
	if m.cfg.SlowTick {
		for c := from; c < to; c++ {
			m.states.Observe(sim.MakeState(c < m.fu2Busy, c < m.fu1Busy, m.bus.BusyAt(c)))
		}
		return
	}
	if from >= to {
		return
	}
	busFree := m.bus.FreeCycle()
	if from+1 == to {
		// Single-cycle window (every issue cycle): no boundary scan needed.
		m.states.ObserveN(sim.MakeState(from < m.fu2Busy, from < m.fu1Busy, from < busFree), 1)
		return
	}
	for c := from; c < to; {
		fu2 := c < m.fu2Busy
		fu1 := c < m.fu1Busy
		ld := c < busFree
		next := to
		for _, b := range [...]int64{m.fu2Busy, m.fu1Busy, busFree} {
			if b > c && b < next {
				next = b
			}
		}
		m.states.ObserveN(sim.MakeState(fu2, fu1, ld), next-c)
		c = next
	}
}
