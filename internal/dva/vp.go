package dva

import (
	"fmt"

	"decvec/internal/isa"
	"decvec/internal/sim"
)

// stepVP advances the vector processor by one cycle. The VP is the vector
// part of the reference architecture plus two QMOV units that move data
// between the vector registers and the AVDQ/VADQ (§4.3). Issue is in order,
// at most one instruction per cycle.
func (m *machine) stepVP() {
	u, ok := m.vpIQ.Head(m.now)
	if !ok {
		return
	}
	in := u.in
	switch u.kind {
	case uExec:
		m.vpExec(in)
	case uQMovAVtoV:
		m.vpQMovLoad(in)
	case uQMovVtoVA:
		m.vpQMovStore(in)
	default: // declint:nonexhaustive — the scalar-side QMOVs (S-register traffic) dispatch to the SP, never here
		panic(fmt.Sprintf("dva: VP cannot execute %s of %s", u.kind, in))
	}
}

// completeDrains releases AVDQ slots whose draining QMOV has finished.
// Slots are freed in FIFO order, so a short drain behind a long one waits.
func (m *machine) completeDrains() {
	for m.drainLen > 0 && m.drainFront().doneAt <= m.now {
		v, ok := m.avdq.Pop(m.now)
		if !ok {
			panic("dva: AVDQ underflow at drain completion")
		}
		if v.seq != m.drainFront().seq {
			panic(fmt.Sprintf("dva: AVDQ head seq %d at drain of %d", v.seq, m.drainFront().seq))
		}
		m.popDrain()
		m.progress()
	}
}

// freeQMovUnit returns the index of a free QMOV unit, or -1.
func (m *machine) freeQMovUnit() int {
	for i := range m.qmovBusy {
		if m.qmovBusy[i] <= m.now {
			return i
		}
	}
	return -1
}

// vDstReady checks the WAW/WAR hazards for writing a vector register.
func (m *machine) vDstReady(r isa.Reg) bool {
	v := &m.vRegs[r.Idx]
	return v.writeReady <= m.now && v.readBusyUntil <= m.now
}

// vSrcReady reports whether a consumer may start reading vector register r
// at this cycle, honouring the chaining rules.
func (m *machine) vSrcReady(r isa.Reg) bool {
	v := &m.vRegs[r.Idx]
	if v.chainable {
		return v.writeStart+m.cfg.ChainDelay <= m.now
	}
	return v.writeReady <= m.now
}

func (m *machine) markVRead(r isa.Reg, vl int64) {
	if r.Kind == isa.RegV {
		v := &m.vRegs[r.Idx]
		v.readBusyUntil = max64(v.readBusyUntil, m.now+vl)
	}
}

// vpQMovLoad drains the AVDQ head into a vector register. The data cannot
// be consumed from the AVDQ until its last element has arrived (§4.2), but
// once the QMOV is under way, downstream functional units may chain off the
// register being filled.
func (m *machine) vpQMovLoad(in *isa.Inst) {
	// The next undrained AVDQ entry must be this QMOV's vector.
	idx := m.drainLen
	v, ok := m.avdq.PeekAt(m.now, idx)
	if !ok || v.readyAt > m.now {
		m.stall(sim.StallVPAVDQ)
		return
	}
	if v.seq != in.Seq {
		panic(fmt.Sprintf("dva: AVDQ entry seq %d for QMOV of %d", v.seq, in.Seq))
	}
	unit := m.freeQMovUnit()
	if unit < 0 {
		m.stall(sim.StallVPQMovUnit)
		return
	}
	if !m.vDstReady(in.Dst) {
		m.stall(sim.StallVPDstHazard)
		return
	}
	vl := int64(in.VL)
	m.qmovBusy[unit] = m.now + vl
	m.pushDrain(drain{seq: in.Seq, doneAt: m.now + vl})
	reg := &m.vRegs[in.Dst.Idx]
	reg.writeStart = m.now
	reg.writeReady = m.now + m.cfg.QMovDepth + vl
	reg.chainable = true
	m.popIQ(&m.vpIQ, sim.ProcVP)
	m.progress()
}

// vpQMovStore moves a vector register into a VADQ slot reserved at issue.
// It can chain off a functional unit still producing the register.
func (m *machine) vpQMovStore(in *isa.Inst) {
	if m.vadq.Full() {
		m.stall(sim.StallVPVADQ)
		return
	}
	unit := m.freeQMovUnit()
	if unit < 0 {
		m.stall(sim.StallVPQMovUnit)
		return
	}
	if !m.vSrcReady(in.Dst) { // store data register travels in Dst
		m.stall(sim.StallVPData)
		return
	}
	vl := int64(in.VL)
	m.qmovBusy[unit] = m.now + vl
	m.markVRead(in.Dst, vl)
	if !m.vadq.Push(m.now, vslot{seq: in.Seq, vl: vl, readyAt: m.now + m.cfg.QMovDepth + vl}) {
		panic("dva: VADQ push failed after capacity check")
	}
	m.popIQ(&m.vpIQ, sim.ProcVP)
	m.progress()
}

// vpExec issues a vector computation (ALU or reduction) on FU1 or FU2.
func (m *machine) vpExec(in *isa.Inst) {
	vl := int64(in.VL)
	// Vector register sources.
	for _, src := range [...]isa.Reg{in.Src1, in.Src2} {
		if src.Kind == isa.RegV && !m.vSrcReady(src) {
			m.stall(sim.StallVPData)
			return
		}
	}
	// A scalar operand arrives through the SVDQ.
	usesSVDQ := in.Src2.Kind == isa.RegS
	if usesSVDQ {
		s, ok := m.svdq.Peek(m.now)
		if !ok || s.readyAt > m.now {
			m.stall(sim.StallVPSVDQ)
			return
		}
		if s.seq != in.Seq {
			panic(fmt.Sprintf("dva: SVDQ head seq %d for %s", s.seq, in))
		}
	}
	// Destination.
	isReduce := in.Class == isa.ClassReduce
	if isReduce {
		if m.vsdq.Full() {
			m.stall(sim.StallVPVSDQ)
			return
		}
	} else if !m.vDstReady(in.Dst) {
		m.stall(sim.StallVPDstHazard)
		return
	}
	// Functional unit: prefer FU1 for FU1-capable work so FU2 stays free
	// for multiplies, divisions and square roots.
	switch {
	case in.Op.FU1Capable() && m.fu1Busy <= m.now:
		m.fu1Busy = m.now + vl
	case m.fu2Busy <= m.now:
		m.fu2Busy = m.now + vl
	default:
		m.stall(sim.StallVPFU)
		return
	}
	if usesSVDQ {
		m.svdq.Pop(m.now)
	}
	m.markVRead(in.Src1, vl)
	m.markVRead(in.Src2, vl)
	if isReduce {
		if !m.vsdq.Push(m.now, sslot{seq: in.Seq, readyAt: m.now + m.cfg.Depth(in.Op) + vl}) {
			panic("dva: VSDQ push failed after capacity check")
		}
	} else {
		reg := &m.vRegs[in.Dst.Idx]
		reg.writeStart = m.now
		reg.writeReady = m.now + m.cfg.Depth(in.Op) + vl
		reg.chainable = true
	}
	m.popIQ(&m.vpIQ, sim.ProcVP)
	m.progress()
}
