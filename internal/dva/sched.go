package dva

// This file runs the DVA core on the wake wheel (sim.Wheel holds the shared
// contract). What is DVA-specific: the queues raise the dirty bits
// (wireWake), and every queue mutation lives inside a progressing step. A
// sleeping unit owes stall debt, its cached stall reasons charged for every
// slept cycle at once when it next steps, so the counters and recorded
// events stay bit-identical to SlowTick. Cross-unit timestamps only grow,
// and the one cross-unit predicate without a dirty bit, the bus, is checked
// last in every step function, after every stall it could mask, so a unit
// sleeping on an earlier stall owes exactly that stall whatever the bus does.

import (
	"decvec/internal/queue"
	"decvec/internal/sim"
)

// Unit indices of the wake wheel. The within-cycle tick order is fixed by
// run() — fetch, then AP/store-engine in bus-priority order, SP, VP, drain
// completion — matching the SlowTick reference loop exactly.
const (
	uFP    = iota // fetch processor
	uAP           // address processor
	uST           // store engine
	uSP           // scalar processor
	uVP           // vector processor
	uDrain        // AVDQ drain completion
	numUnits
)

// wireWake points every architectural queue at the wheel's dirty word with
// the wake conditions of the units whose decision predicates read that
// queue — the producer side (capacity tests, unblocked by pops of a full
// queue) and the consumer side (head/peek probes, unblocked by pushes into
// the shallow prefix the unit actually reads) alike. The Push/Pop
// conditions (see queue.Wake) keep units asleep through the bulk of a
// dispatch burst: a tail push into a backlogged queue wakes nobody.
//
// The conditions encode how each unit reads each queue:
//
//   - the instruction queues and the point-to-point data queues are
//     head-consumed (BelowN 1); the SAAQ delivers up to two S operands per
//     AP instruction (BelowN 2);
//   - the AP's disambiguation scan reads the whole SSAQ/VSAQ and its bypass
//     scan the whole VADQ, so those queues' pops — and VADQ pushes — wake
//     the AP unconditionally (its own pushes are self-actions);
//   - the VP peeks the AVDQ at the first undrained index, which is not a
//     fixed prefix, so AVDQ pushes wake it unconditionally; AVDQ pops (by
//     the drain unit) shift indices and drainLen together and leave the
//     VP's view unchanged;
//   - fetch dispatch can need more than one slot in one instruction queue,
//     so IQ pops wake it unconditionally rather than only on full→not-full.
//
// The wiring is structural (pointers into the machine itself) and survives
// reset.
func (m *machine) wireWake() {
	w, bits := m.wheel.DirtyWord(), sim.WakeBits
	m.apIQ.SetWake(w, queue.Wake{PushBelow: bits(uAP), BelowN: 1, PopAlways: bits(uFP)})
	m.spIQ.SetWake(w, queue.Wake{PushBelow: bits(uSP), BelowN: 1, PopAlways: bits(uFP)})
	m.vpIQ.SetWake(w, queue.Wake{PushBelow: bits(uVP), BelowN: 1, PopAlways: bits(uFP)})
	m.avdq.SetWake(w, queue.Wake{PushAlways: bits(uVP), PopFull: bits(uAP)})
	m.vadq.SetWake(w, queue.Wake{PushAlways: bits(uAP), PushBelow: bits(uST), BelowN: 1, PopAlways: bits(uAP), PopFull: bits(uVP)})
	m.asdq.SetWake(w, queue.Wake{PushBelow: bits(uSP), BelowN: 1, PopFull: bits(uAP)})
	m.sadq.SetWake(w, queue.Wake{PushBelow: bits(uST), BelowN: 1, PopFull: bits(uSP)})
	m.svdq.SetWake(w, queue.Wake{PushBelow: bits(uVP), BelowN: 1, PopFull: bits(uSP)})
	m.vsdq.SetWake(w, queue.Wake{PushBelow: bits(uSP), BelowN: 1, PopFull: bits(uVP)})
	m.saaq.SetWake(w, queue.Wake{PushBelow: bits(uAP), BelowN: 2, PopFull: bits(uSP)})
	m.ssaq.SetWake(w, queue.Wake{PushBelow: bits(uST), BelowN: 1, PopAlways: bits(uAP)})
	m.vsaq.SetWake(w, queue.Wake{PushBelow: bits(uST), BelowN: 1, PopAlways: bits(uAP)})
	m.afbq.SetWake(w, queue.Wake{PushBelow: bits(uFP), BelowN: 1, PopFull: bits(uAP)})
	m.sfbq.SetWake(w, queue.Wake{PushBelow: bits(uFP), BelowN: 1, PopFull: bits(uSP)})
}

// tickUnit runs unit u's slot of the current cycle: step it when due,
// settling the stalls it owes for the cycles it slept (settleStall; see
// settleStallDebt for the end-of-run flush), otherwise leave it asleep.
// declint:hotpath
func (m *machine) tickUnit(u int) {
	due, dirty := m.wheel.Due(u, m.now)
	if !due {
		return
	}
	m.settleStall(u, m.now-m.lastStep[u]-1)
	m.lastStep[u] = m.now
	stallBase := m.nCycleStalls
	p0 := m.progressCount
	mut0 := m.mutated
	switch u {
	case uFP:
		m.stepFetch()
	case uAP:
		m.stepAP()
	case uST:
		m.stepStoreEngine()
	case uSP:
		m.stepSP()
	case uVP:
		m.stepVP()
	case uDrain:
		m.completeDrains()
	default:
		panic("dva: unknown scheduler unit")
	}
	// Mutating state on a stall path, as a hazard flush does, counts as
	// acting: the post-action state may admit another decision at once. An
	// acting unit owes nothing for the cycles it is due next.
	acted := m.progressCount != p0 || (m.mutated && !mut0)
	n := m.nCycleStalls - stallBase
	if acted {
		n = 0
	}
	for i := int32(0); i < n; i++ {
		m.stallCache[u][i] = m.cycleStalls[stallBase+i]
	}
	m.stallN[u] = int8(n)
	if m.wheel.Stepped(u, m.now, acted, dirty) {
		m.wheel.Sleep(u, m.unitWake(u))
	}
}

// settleStall charges unit u's cached stall reasons for the d cycles it
// slept after its last step, to the counters and, as one span per reason,
// to the recorder. The span starts at lastStep+1, where the event the unit
// emitted at lastStep ends, so the recorder coalesces it into that event
// and the stream stays bit-identical to the per-cycle SlowTick reference.
// declint:hotpath
func (m *machine) settleStall(u int, d int64) {
	if d <= 0 {
		return
	}
	for i := int8(0); i < m.stallN[u]; i++ {
		r := m.stallCache[u][i]
		m.stalls.Add(r, d)
		m.rec.StallSpan(m.lastStep[u]+1, r, d)
	}
}

// settleStallDebt flushes every unit's outstanding stall debt at the end of
// a fast run. A unit asleep since its last step would, in the reference
// mode, have stepped and re-stalled with its cached reasons on every cycle
// through the terminal one, so each reason is owed now-lastStep cycles (the
// stall at lastStep itself was batched normally that cycle). Units that
// stepped on the terminal cycle owe nothing.
func (m *machine) settleStallDebt() {
	for u := 0; u < numUnits; u++ {
		m.settleStall(u, m.now-m.lastStep[u])
	}
}

// unitWake computes unit u's wake time after a clean stall: the earliest
// strictly-future timestamp among those the unit's predicates read, a
// deliberate superset of what its current stall needs.
// declint:hotpath
func (m *machine) unitWake(u int) int64 {
	switch u {
	case uFP:
		// Fetch reads no timestamps: dispatch capacity changes only through
		// instruction-queue pops and branch-queue pushes, both dirty-bit
		// sites.
		return sim.Never
	case uAP:
		return m.wakeAP()
	case uST:
		return m.wakeST()
	case uSP:
		return m.wakeSP()
	case uVP:
		return m.wakeVP()
	case uDrain:
		if m.drainLen > 0 {
			return sim.LowerFuture(sim.Never, m.now, m.drainFront().doneAt)
		}
		return sim.Never
	default:
		panic("dva: unknown scheduler unit")
	}
}

// wakeAP collects the AP's timestamp set: A-register ready times, the
// arrival times of its first two SAAQ operands (its operand-count bound),
// the bus, the bypass unit, and — for a bypassing load waiting on store
// data — every visible VADQ entry's arrival time. Flush waits and
// disambiguation verdicts move only through store-queue mutations, which
// are dirty-bit sites.
// declint:hotpath
func (m *machine) wakeAP() int64 {
	now := m.now
	h := sim.Never
	for _, t := range m.aReady {
		h = sim.LowerFuture(h, now, t)
	}
	for i := 0; i < 2; i++ {
		s, ok := m.saaq.PeekAt(now, i)
		if !ok {
			break
		}
		h = sim.LowerFuture(h, now, s.readyAt)
	}
	h = sim.LowerFuture(h, now, m.bus.FreeCycle())
	h = sim.LowerFuture(h, now, m.bypassBusyUntil)
	m.vadq.All(now, func(v *vslot) bool { h = sim.LowerFuture(h, now, v.readyAt); return true })
	return h
}

// wakeST collects the store engine's timestamp set. While a store is in
// flight its only predicate is the completion time; idle, it reads the
// oldest store's data-arrival time (queue-resident for S/V data, stored in
// the address entry for A-register data) and the bus.
// declint:hotpath
func (m *machine) wakeST() int64 {
	now := m.now
	if m.storeActive {
		return sim.LowerFuture(sim.Never, now, m.storeDoneAt)
	}
	h := sim.Never
	if st, ok := m.ssaq.Head(now); ok && !st.needsData {
		h = sim.LowerFuture(h, now, st.dataReadyAt)
	}
	if st, ok := m.vsaq.Head(now); ok && !st.needsData {
		h = sim.LowerFuture(h, now, st.dataReadyAt)
	}
	if s, ok := m.sadq.Head(now); ok {
		h = sim.LowerFuture(h, now, s.readyAt)
	}
	if v, ok := m.vadq.Head(now); ok {
		h = sim.LowerFuture(h, now, v.readyAt)
	}
	h = sim.LowerFuture(h, now, m.bus.FreeCycle())
	return h
}

// wakeSP collects the scalar processor's timestamp set: S-register ready
// times and the head arrival times of the two queues it drains.
// declint:hotpath
func (m *machine) wakeSP() int64 {
	now := m.now
	h := sim.Never
	for _, t := range m.sReady {
		h = sim.LowerFuture(h, now, t)
	}
	if s, ok := m.asdq.Head(now); ok {
		h = sim.LowerFuture(h, now, s.readyAt)
	}
	if s, ok := m.vsdq.Head(now); ok {
		h = sim.LowerFuture(h, now, s.readyAt)
	}
	return h
}

// wakeVP collects the vector processor's timestamp set: functional-unit and
// QMOV busy times, the vector-register scoreboard (write completion, read
// occupancy, chain-start points), the SVDQ head's arrival, and the first
// undrained AVDQ entry's arrival.
// declint:hotpath
func (m *machine) wakeVP() int64 {
	now := m.now
	h := sim.Never
	h = sim.LowerFuture(h, now, m.fu1Busy)
	h = sim.LowerFuture(h, now, m.fu2Busy)
	for _, t := range m.qmovBusy {
		h = sim.LowerFuture(h, now, t)
	}
	chain := m.cfg.ChainDelay
	for i := range m.vRegs {
		v := &m.vRegs[i]
		h = sim.LowerFuture(h, now, v.writeReady)
		h = sim.LowerFuture(h, now, v.readBusyUntil)
		if v.chainable {
			h = sim.LowerFuture(h, now, v.writeStart+chain)
		}
	}
	if s, ok := m.svdq.Head(now); ok {
		h = sim.LowerFuture(h, now, s.readyAt)
	}
	if v, ok := m.avdq.PeekAt(now, m.drainLen); ok {
		h = sim.LowerFuture(h, now, v.readyAt)
	}
	return h
}

// nextWake returns the idle-skip target: the wheel's minimum, no later than
// deadline. The drain slot's wake time goes stale once its ring empties, so
// it is parked at Never then; pushDrain brings it forward again. The bus
// joins the minimum not as a decision input but as a sampling boundary:
// skipTo accounts the whole span under one (FU2, FU1, LD) state, and the LD
// bit flips when a port's reservation runs out even if no unit wakes for
// it, so a span must never cross a port release.
// declint:hotpath
func (m *machine) nextWake(deadline int64) int64 {
	if m.drainLen == 0 {
		m.wheel.Sleep(uDrain, sim.Never)
	}
	return sim.LowerFuture(m.wheel.Min(deadline), m.now, m.bus.FreeCycle())
}
