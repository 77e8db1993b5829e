package dva

import (
	"fmt"

	"decvec/internal/isa"
	"decvec/internal/sim"
)

// stepSP advances the scalar processor by one cycle. The SP issues one
// instruction per cycle and every scalar instruction completes in exactly
// one cycle (§4.4); the exceptions are the QMOV instructions, which block
// when their queue is empty or full.
func (m *machine) stepSP() {
	u, ok := m.spIQ.Head(m.now)
	if !ok {
		return
	}
	in := u.in
	switch u.kind {
	case uExec:
		m.spExec(in)
	case uQMovAStoS:
		// ASDQ -> S register: the result of a scalar load.
		s, ok := m.asdq.Peek(m.now)
		if !ok || s.readyAt > m.now {
			m.stall(sim.StallSPASDQ)
			return
		}
		if s.seq != in.Seq {
			panic(fmt.Sprintf("dva: ASDQ head seq %d for QMOV of %d", s.seq, in.Seq))
		}
		m.asdq.Pop(m.now)
		m.sReady[in.Dst.Idx] = m.now + 1
		m.popIQ(&m.spIQ, sim.ProcSP)
		m.progress()
	case uQMovVStoS:
		// VSDQ -> S register: a reduction result computed by the VP.
		s, ok := m.vsdq.Peek(m.now)
		if !ok || s.readyAt > m.now {
			m.stall(sim.StallSPVSDQ)
			return
		}
		if s.seq != in.Seq {
			panic(fmt.Sprintf("dva: VSDQ head seq %d for QMOV of %d", s.seq, in.Seq))
		}
		m.vsdq.Pop(m.now)
		m.sReady[in.Dst.Idx] = m.now + 1
		m.popIQ(&m.spIQ, sim.ProcSP)
		m.progress()
	case uQMovStoSA:
		// S register -> SADQ: scalar store data. The data register of a
		// store travels in Dst.
		m.spMoveOut(in, in.Dst, &m.sadq)
	case uQMovStoSV:
		// S register -> SVDQ: the scalar operand of a vector instruction.
		m.spMoveOut(in, in.Src2, &m.svdq)
	case uQMovStoSAA:
		// S register -> SAAQ: an operand the AP is waiting for.
		src := in.Src1
		if src.Kind != isa.RegS {
			src = in.Src2
		}
		m.spMoveOut(in, src, &m.saaq)
	default: // declint:nonexhaustive — the inbound vector-side QMOVs (uQMovAVtoV, uQMovVtoVA) dispatch to the VP, never here
		panic(fmt.Sprintf("dva: SP cannot execute %s of %s", u.kind, in))
	}
}

// spMoveOut implements the blocking S-register-to-queue QMOVs.
func (m *machine) spMoveOut(in *isa.Inst, src isa.Reg, q interface {
	Full() bool
	Push(int64, sslot) bool
}) {
	if src.Kind != isa.RegS {
		panic(fmt.Sprintf("dva: QMOV out of non-S register %v in %s", src, in))
	}
	if m.sReady[src.Idx] > m.now {
		m.stall(sim.StallSPData)
		return
	}
	if q.Full() {
		m.stall(sim.StallSPQueueFull)
		return
	}
	if !q.Push(m.now, sslot{seq: in.Seq, readyAt: m.now + 1}) {
		panic("dva: QMOV push failed after capacity check")
	}
	m.popIQ(&m.spIQ, sim.ProcSP)
	m.progress()
}

// spExec executes an ordinary scalar instruction on the SP.
func (m *machine) spExec(in *isa.Inst) {
	// All sources must be S registers (the trace generator never routes
	// A-register code to the SP).
	for _, src := range [...]isa.Reg{in.Src1, in.Src2} {
		switch src.Kind {
		case isa.RegS:
			if m.sReady[src.Idx] > m.now {
				m.stall(sim.StallSPData)
				return
			}
		case isa.RegA:
			panic(fmt.Sprintf("dva: SP instruction reads A register: %s", in))
		default: // declint:nonexhaustive — RegNone means the operand is unused; vector operands never reach spExec
		}
	}
	switch in.Class {
	case isa.ClassNop, isa.ClassVSetVL, isa.ClassVSetVS:
		// One cycle, no register effects.
	case isa.ClassScalarALU:
		if in.Dst.Kind == isa.RegS {
			m.sReady[in.Dst.Idx] = m.now + 1
		}
	case isa.ClassBranch:
		if m.sfbq.Full() {
			m.stall(sim.StallSPSFBQ)
			return
		}
		if !m.sfbq.Push(m.now, in.Seq) {
			panic("dva: SFBQ push failed after capacity check")
		}
	default: // declint:nonexhaustive — memory and vector classes route to the AP/VP; reaching here is a routing bug
		panic(fmt.Sprintf("dva: SP cannot execute class %s", in.Class))
	}
	m.popIQ(&m.spIQ, sim.ProcSP)
	m.progress()
}
