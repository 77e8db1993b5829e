package dva

import (
	"fmt"

	"decvec/internal/isa"
	"decvec/internal/queue"
	"decvec/internal/sim"
)

// push is one queue insertion route() emits for an instruction; buildPlan
// compacts them into plan entries.
type push struct {
	q *queue.Q[uop]
	u uop
}

// stepFetch advances the fetch processor by one cycle: it drains the branch
// result queues (perfect branch prediction — outcomes are consumed but
// never stall fetch, §4.1) and dispatches at most one instruction in its
// decoupled form, QMOV pseudo-instructions included.
func (m *machine) stepFetch() {
	// Drain branch outcome queues for free. The inlined emptiness guards
	// keep the (non-inlined) Pop call off the common every-cycle path.
	for !m.afbq.Empty() {
		if _, ok := m.afbq.Pop(m.now); !ok {
			break
		}
		m.progress()
	}
	for !m.sfbq.Empty() {
		if _, ok := m.sfbq.Pop(m.now); !ok {
			break
		}
		m.progress()
	}

	m.dispatchPlanned()
}

// dispatchPlanned is stepFetch's dispatch stage over the trace's predecoded
// plan (plan.go), built by running route() over the trace once: the next
// instruction's uops and per-queue slot demands are table entries, so
// fetching costs an index bump and the blocked re-check at most three
// capacity comparisons.
func (m *machine) dispatchPlanned() {
	if m.planPos >= len(m.plan.insts) {
		return
	}
	// A capacity-blocked dispatch can only be unblocked by an instruction
	// queue pop (capacity moves no other way), so until popIQ reports one
	// the re-check is a single flag test.
	if m.dispBlocked && !m.iqFreed {
		m.stall(sim.StallFPDispatch)
		return
	}
	e := &m.plan.entries[m.planPos]
	// All destination queues must have room for their share of the pushes;
	// the dispatch is atomic.
	if (e.need[planAP] > 0 && m.apIQ.Cap()-m.apIQ.Len() < int(e.need[planAP])) ||
		(e.need[planSP] > 0 && m.spIQ.Cap()-m.spIQ.Len() < int(e.need[planSP])) ||
		(e.need[planVP] > 0 && m.vpIQ.Cap()-m.vpIQ.Len() < int(e.need[planVP])) {
		// Pops observed up to here were consumed by this (failed) check; the
		// next one starts a fresh wait.
		m.dispBlocked = true
		m.iqFreed = false
		m.stall(sim.StallFPDispatch)
		return
	}
	m.dispBlocked = false
	in := &m.plan.insts[m.planPos]
	for k := 0; k < int(e.n); k++ {
		op := e.ops[k]
		if !m.planQ(op.qid).Push(m.now, uop{kind: op.kind, in: in}) {
			panic("dva: dispatch push failed after capacity check")
		}
	}
	if m.rec != nil {
		m.rec.Issue(m.now, sim.ProcFP, in.Seq, in.Class.String())
	}
	m.planPos++
	m.progress()
}

// route translates one architectural instruction into the uops that flow to
// the three processors (§4.1's simple translation rules), appending them to
// ps and returning the extended slice.
func (m *machine) route(ps []push, in *isa.Inst) []push {
	exec := uop{kind: uExec, in: in}
	switch in.Class {
	case isa.ClassNop, isa.ClassVSetVL, isa.ClassVSetVS:
		return append(ps, push{&m.spIQ, exec})

	case isa.ClassScalarALU, isa.ClassBranch:
		if involvesA(in) {
			ps = append(ps, push{&m.apIQ, exec})
			// The AP receives S-register operands through the SAAQ.
			for _, src := range [...]isa.Reg{in.Src1, in.Src2} {
				if src.Kind == isa.RegS {
					ps = append(ps, push{&m.spIQ, uop{kind: uQMovStoSAA, in: in}})
				}
			}
			return ps
		}
		return append(ps, push{&m.spIQ, exec})

	case isa.ClassScalarLoad:
		ps = append(ps, push{&m.apIQ, exec})
		if in.Dst.Kind == isa.RegS {
			ps = append(ps, push{&m.spIQ, uop{kind: uQMovAStoS, in: in}})
		}
		return ps

	case isa.ClassScalarStore:
		ps = append(ps, push{&m.apIQ, exec})
		if in.Dst.Kind == isa.RegS {
			// The data travels SP -> SADQ -> store engine.
			ps = append(ps, push{&m.spIQ, uop{kind: uQMovStoSA, in: in}})
		}
		return ps

	case isa.ClassVectorLoad, isa.ClassGather:
		return append(ps,
			push{&m.apIQ, exec},
			push{&m.vpIQ, uop{kind: uQMovAVtoV, in: in}})

	case isa.ClassVectorStore, isa.ClassScatter:
		return append(ps,
			push{&m.vpIQ, uop{kind: uQMovVtoVA, in: in}},
			push{&m.apIQ, exec})

	case isa.ClassVectorALU:
		ps = append(ps, push{&m.vpIQ, exec})
		if in.Src2.Kind == isa.RegS {
			ps = append(ps, push{&m.spIQ, uop{kind: uQMovStoSV, in: in}})
		}
		return ps

	case isa.ClassReduce:
		return append(ps,
			push{&m.vpIQ, exec},
			push{&m.spIQ, uop{kind: uQMovVStoS, in: in}})

	default:
		panic(fmt.Sprintf("dva: unroutable instruction %s", in))
	}
}
