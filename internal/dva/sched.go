package dva

// This file implements the per-unit wake scheduler ("wake wheel") the fast
// path runs on. Every simulated cycle still passes through run()'s loop —
// sampling, stall batching and the finished() check are per-cycle — but a
// unit's step function only executes when the unit is *due* (the cycle
// reached its wake time) or *dirty* (a queue its decisions read mutated
// since it last stepped). A unit that steps without acting goes back to
// sleep: its stall reasons are cached, and when it next steps (or the run
// ends) they are charged for every slept cycle at once — to the counters and
// as one recorder span per reason — so the stall counters and the recorded
// event stream stay bit-identical to the SlowTick reference. Its wake time
// is recomputed as the earliest strictly-future timestamp its decision
// predicates read.
// The whole-machine idle skip is the degenerate all-units-asleep case: on a
// cycle with no progress and no mutation every dirty bit is provably clear
// (every queue mutation lives inside a progressing step), so the machine
// jumps to the minimum of six wake times in one hop — the old horizon()
// full-machine rescan per skip is gone.
//
// Correctness rests on the invariants the horizon() scan relied on, now
// split per unit:
//
//   - every step function is a chain of predicates "timestamp <= now" and
//     queue occupancy tests, so waking a unit early is always safe: it
//     re-stalls identically and sleeps again;
//   - a sleeping unit's first failing predicate cannot change without
//     either a queue mutation (which raises the unit's dirty bit through
//     the queue's wake wiring, this cycle and the next — the next-cycle
//     half covers the one-cycle entry-visibility delay) or a stored future
//     timestamp arriving (covered by the wake time, a conservative
//     superset of every timestamp the unit's predicates read);
//   - cross-unit timestamps only grow (bus reservations extend busy spans,
//     never shrink them), and the one cross-unit predicate without a dirty
//     bit — the bus — is checked last in every step function, after every
//     stall it could mask, so a unit sleeping on an earlier stall owes
//     exactly that stall for every slept cycle, whatever the bus does
//     meanwhile.
//
// Register scoreboards (aReady, sReady, vRegs), functional units, QMOV
// units, the bypass unit, the store engine and the disambiguation memo are
// each written only by the unit that reads them; a unit that rewrites its
// own state has, by definition, acted, and an acting unit is due again the
// very next cycle.

import "decvec/internal/queue"

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

// unitMaskAll selects every unit's bit in one half of the dirty word.
const unitMaskAll = 1<<numUnits - 1

// infCycle is the "never" wake time: a unit whose decisions wait on no
// stored timestamp sleeps until a dirty bit wakes it. The same sentinel the
// old horizon() used, so an all-quiet machine runs the deadlock window out
// with identical cycle arithmetic.
const infCycle = int64(1)<<62 - 1

// wakeBits builds a queue's wake mask: the given units' bits in both the
// current-cycle (low) and next-cycle (high) halves of the dirty word.
func wakeBits(units ...int) uint32 {
	var b uint32
	for _, u := range units {
		b |= 1 << u
	}
	return b | b<<16
}

// wireWake points every architectural queue at the machine's dirty word
// with the wake conditions of the units whose decision predicates read that
// queue — the producer side (capacity tests, unblocked by pops of a full
// queue) and the consumer side (head/peek probes, unblocked by pushes into
// the shallow prefix the unit actually reads) alike. This generalizes the
// iqFreed blocked-dispatch gate from one unit to all of them, and the
// Push/Pop conditions (see queue.Wake) keep units asleep through the bulk
// of a dispatch burst: a tail push into a backlogged queue wakes nobody.
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
	w := &m.dirty
	m.apIQ.SetWake(w, queue.Wake{PushBelow: wakeBits(uAP), BelowN: 1, PopAlways: wakeBits(uFP)})
	m.spIQ.SetWake(w, queue.Wake{PushBelow: wakeBits(uSP), BelowN: 1, PopAlways: wakeBits(uFP)})
	m.vpIQ.SetWake(w, queue.Wake{PushBelow: wakeBits(uVP), BelowN: 1, PopAlways: wakeBits(uFP)})
	m.avdq.SetWake(w, queue.Wake{PushAlways: wakeBits(uVP), PopFull: wakeBits(uAP)})
	m.vadq.SetWake(w, queue.Wake{PushAlways: wakeBits(uAP), PushBelow: wakeBits(uST), BelowN: 1, PopAlways: wakeBits(uAP), PopFull: wakeBits(uVP)})
	m.asdq.SetWake(w, queue.Wake{PushBelow: wakeBits(uSP), BelowN: 1, PopFull: wakeBits(uAP)})
	m.sadq.SetWake(w, queue.Wake{PushBelow: wakeBits(uST), BelowN: 1, PopFull: wakeBits(uSP)})
	m.svdq.SetWake(w, queue.Wake{PushBelow: wakeBits(uVP), BelowN: 1, PopFull: wakeBits(uSP)})
	m.vsdq.SetWake(w, queue.Wake{PushBelow: wakeBits(uSP), BelowN: 1, PopFull: wakeBits(uVP)})
	m.saaq.SetWake(w, queue.Wake{PushBelow: wakeBits(uAP), BelowN: 2, PopFull: wakeBits(uSP)})
	m.ssaq.SetWake(w, queue.Wake{PushBelow: wakeBits(uST), BelowN: 1, PopAlways: wakeBits(uAP)})
	m.vsaq.SetWake(w, queue.Wake{PushBelow: wakeBits(uST), BelowN: 1, PopAlways: wakeBits(uAP)})
	m.afbq.SetWake(w, queue.Wake{PushBelow: wakeBits(uFP), BelowN: 1, PopFull: wakeBits(uAP)})
	m.sfbq.SetWake(w, queue.Wake{PushBelow: wakeBits(uFP), BelowN: 1, PopFull: wakeBits(uSP)})
}

// tickUnit runs unit u's slot of the current cycle: step it when due or
// dirty, otherwise leave it asleep — a sleeping unit costs two loads and a
// branch. The slept cycles are settled in bulk when the unit next steps:
// its cached stall reasons are exactly what every slept cycle would have
// emitted, so charging each reason once per slept cycle is exact (see
// settleStall, and settleStallDebt for the end-of-run flush).
// declint:hotpath
func (m *machine) tickUnit(u int) {
	if m.dirty&(1<<u) == 0 && m.now < m.wake[u] {
		return
	}
	m.settleStall(u, m.now-m.lastStep[u]-1)
	m.lastStep[u] = m.now
	wasDirty := m.dirty&(1<<u) != 0
	m.dirty &^= 1 << u
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
	if m.progressCount != p0 || (m.mutated && !mut0) {
		// The unit acted (or mutated state on a stall path, as a hazard
		// flush does); its post-action state may admit another decision
		// immediately, so it is due next cycle and caches nothing.
		m.wake[u] = m.now + 1
		m.stallN[u] = 0
		return
	}
	n := m.nCycleStalls - stallBase
	for i := int32(0); i < n; i++ {
		m.stallCache[u][i] = m.cycleStalls[stallBase+i]
	}
	m.stallN[u] = int8(n)
	if wasDirty {
		// A dirty-triggered stall is almost always mid-burst: the queues
		// around the unit are moving and another dirty bit is a cycle or
		// two away, so a full predicate scan would be wasted work. Stay due
		// (waking early is always safe) and let the scan run at the first
		// stall with no dirt — the actual transition into a quiet phase.
		m.wake[u] = m.now + 1
		return
	}
	m.wake[u] = m.unitWake(u)
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

// unitWake computes unit u's wake time after a step that did not act: the
// earliest strictly-future timestamp among those the unit's predicates
// read. Each set is the per-unit partition of the old horizon() scan and is
// deliberately a superset of what the unit's current stall needs — waking
// early is safe, sleeping late is the bug class.
// declint:hotpath
func (m *machine) unitWake(u int) int64 {
	switch u {
	case uFP:
		// Fetch reads no timestamps: dispatch capacity changes only through
		// instruction-queue pops and branch-queue pushes, both dirty-bit
		// sites.
		return infCycle
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
			return lowerFuture(infCycle, m.now, m.drainFront().doneAt)
		}
		return infCycle
	default:
		panic("dva: unknown scheduler unit")
	}
}

// lowerFuture folds candidate timestamp t into the running minimum h,
// counting only strictly-future cycles: a timestamp at or before now
// already satisfies its predicate and can never flip it again.
func lowerFuture(h, now, t int64) int64 {
	if t > now && t < h {
		return t
	}
	return h
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
	h := infCycle
	for _, t := range m.aReady {
		h = lowerFuture(h, now, t)
	}
	for i := 0; i < 2; i++ {
		s, ok := m.saaq.PeekAt(now, i)
		if !ok {
			break
		}
		h = lowerFuture(h, now, s.readyAt)
	}
	h = lowerFuture(h, now, m.bus.FreeCycle())
	h = lowerFuture(h, now, m.bypassBusyUntil)
	m.vadq.All(now, func(v *vslot) bool { h = lowerFuture(h, now, v.readyAt); return true })
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
		return lowerFuture(infCycle, now, m.storeDoneAt)
	}
	h := infCycle
	if st, ok := m.ssaq.Head(now); ok && !st.needsData {
		h = lowerFuture(h, now, st.dataReadyAt)
	}
	if st, ok := m.vsaq.Head(now); ok && !st.needsData {
		h = lowerFuture(h, now, st.dataReadyAt)
	}
	if s, ok := m.sadq.Head(now); ok {
		h = lowerFuture(h, now, s.readyAt)
	}
	if v, ok := m.vadq.Head(now); ok {
		h = lowerFuture(h, now, v.readyAt)
	}
	h = lowerFuture(h, now, m.bus.FreeCycle())
	return h
}

// wakeSP collects the scalar processor's timestamp set: S-register ready
// times and the head arrival times of the two queues it drains.
// declint:hotpath
func (m *machine) wakeSP() int64 {
	now := m.now
	h := infCycle
	for _, t := range m.sReady {
		h = lowerFuture(h, now, t)
	}
	if s, ok := m.asdq.Head(now); ok {
		h = lowerFuture(h, now, s.readyAt)
	}
	if s, ok := m.vsdq.Head(now); ok {
		h = lowerFuture(h, now, s.readyAt)
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
	h := infCycle
	h = lowerFuture(h, now, m.fu1Busy)
	h = lowerFuture(h, now, m.fu2Busy)
	for _, t := range m.qmovBusy {
		h = lowerFuture(h, now, t)
	}
	chain := m.cfg.ChainDelay
	for i := range m.vRegs {
		v := &m.vRegs[i]
		h = lowerFuture(h, now, v.writeReady)
		h = lowerFuture(h, now, v.readBusyUntil)
		if v.chainable {
			h = lowerFuture(h, now, v.writeStart+chain)
		}
	}
	if s, ok := m.svdq.Head(now); ok {
		h = lowerFuture(h, now, s.readyAt)
	}
	if v, ok := m.avdq.PeekAt(now, m.drainLen); ok {
		h = lowerFuture(h, now, v.readyAt)
	}
	return h
}

// nextWake returns the earliest wake time across the wheel — the idle-skip
// target. Called only after a cycle with no progress and no mutation, when
// every unit was either stepped (and recomputed a future wake) or verified
// asleep, so every entry is strictly beyond m.now. The drain slot counts
// only while drains are in flight (its wake time is stale otherwise). The
// bus joins the minimum not as a decision input but as a sampling boundary:
// skipTo accounts the whole span under one (FU2, FU1, LD) state, and the LD
// bit flips when a port's reservation runs out even if no unit wakes for
// it, so a span must never cross a port release.
// declint:hotpath
func (m *machine) nextWake() int64 {
	h := m.wake[uFP]
	for u := uAP; u <= uVP; u++ {
		if m.wake[u] < h {
			h = m.wake[u]
		}
	}
	if m.drainLen > 0 && m.wake[uDrain] < h {
		h = m.wake[uDrain]
	}
	return lowerFuture(h, m.now, m.bus.FreeCycle())
}
