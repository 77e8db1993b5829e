package ooo

// This file runs the out-of-order core on the wake wheel (sim.Wheel, which
// holds the contract shared with the DVA core). The machine has three units
// — fetch/rename, issue, retire — coupled through the window ring instead
// of architectural queues, so the tick wrapper raises dirty bits straight
// from the action graph rather than through queue hooks: a fetch inserts an
// entry the issue scan must see (same cycle — the window has no visibility
// delay), an issue flips the flags and value timestamps retirement and
// younger issues read (same cycle), and a retirement frees the window slot
// and physical register fetch is blocked on (next cycle — fetch's slot has
// already run, so the bit survives to the following tick). The OOO core
// records no stall events, so a sleeping unit owes nothing; only the
// stepping decisions matter. The bus and functional units only ever extend
// their busy spans.

import "decvec/internal/sim"

// Unit indices of the wake wheel; the within-cycle order is fetch, issue,
// retire, matching the SlowTick reference loop. The action edges form the
// ring fetch→issue→retire→fetch: an acting unit dirties unit u+1 mod
// numUnits.
const (
	oFetch = iota
	oIssue
	oRetire
	numUnits
)

// tick runs unit u's slot of the current cycle: step it when due or dirty,
// raise the dirty bit of the unit its action feeds, and put it back to
// sleep at the earliest future timestamp it reads otherwise.
// declint:hotpath
func (m *machine) tick(u int) {
	due, dirty := m.wheel.Due(u, m.now)
	if !due {
		return
	}
	p0 := m.progressCount
	switch u {
	case oFetch:
		m.fetch()
	case oIssue:
		m.issueOne()
	case oRetire:
		m.retire()
	default:
		panic("ooo: unknown scheduler unit")
	}
	acted := m.progressCount != p0
	if acted {
		m.wheel.Raise((u + 1) % numUnits)
	}
	if m.wheel.Stepped(u, m.now, acted, dirty) {
		m.wheel.Sleep(u, m.unitWake(u))
	}
}

// unitWake computes unit u's wake time after a clean stall.
// declint:hotpath
func (m *machine) unitWake(u int) int64 {
	switch u {
	case oFetch:
		// Fetch waits only on a window slot or a physical register, both
		// freed by retirement — a dirty-bit site, not a timestamp.
		return sim.Never
	case oIssue:
		return m.wakeIssue()
	case oRetire:
		return m.wakeRetire()
	default:
		panic("ooo: unknown scheduler unit")
	}
}

// lowerValue folds a renamed value's wake points into h: its completion
// and, for chainable producers, its chain-start point. Values whose
// producers have not issued carry no timestamp — they wake only through an
// issue, which raises the dirty bit instead.
func (m *machine) lowerValue(h int64, v *value) int64 {
	if v != nil && v.valid {
		h = sim.LowerFuture(h, m.now, v.ready)
		if v.chainable {
			h = sim.LowerFuture(h, m.now, v.start+m.cfg.ChainDelay)
		}
	}
	return h
}

// wakeIssue collects the issue logic's timestamp set: the functional units,
// the bus, and every unissued window entry's source-value snapshot. Memory
// ordering, source validity and cache state move only through issues, which
// are self-actions.
// declint:hotpath
func (m *machine) wakeIssue() int64 {
	now := m.now
	h := sim.Never
	h = sim.LowerFuture(h, now, m.fu1Busy)
	h = sim.LowerFuture(h, now, m.fu2Busy)
	h = sim.LowerFuture(h, now, m.bus.FreeCycle())
	for i := 0; i < m.wLen; i++ {
		e := m.winAt(i)
		if e.issued {
			continue
		}
		h = m.lowerValue(h, e.src1)
		h = m.lowerValue(h, e.src2)
		h = m.lowerValue(h, e.data)
	}
	return h
}

// wakeRetire collects retirement's one timestamp: the head entry's result
// completion. An unissued head wakes through issue's dirty bit.
// declint:hotpath
func (m *machine) wakeRetire() int64 {
	if m.wLen == 0 {
		return sim.Never
	}
	e := m.winAt(0)
	if !e.issued || e.dst == nil || !e.dst.valid {
		return sim.Never
	}
	return sim.LowerFuture(sim.Never, m.now, e.dst.ready)
}

// nextWake returns the idle-skip target: the wheel's minimum, no later than
// deadline, floored by the sampling and termination boundaries — the
// functional-unit and bus-port releases (the (FU2, FU1, LD) state must be
// constant over a bulk-accounted span) and maxDone (the drained machine
// finishes exactly there).
// declint:hotpath
func (m *machine) nextWake(deadline int64) int64 {
	now := m.now
	h := m.wheel.Min(deadline)
	h = sim.LowerFuture(h, now, m.fu1Busy)
	h = sim.LowerFuture(h, now, m.fu2Busy)
	h = sim.LowerFuture(h, now, m.bus.FreeCycle())
	return sim.LowerFuture(h, now, m.maxDone)
}
