package dva

import (
	"fmt"

	"decvec/internal/isa"
	"decvec/internal/queue"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// A dispatchPlan is the predecoded form of one trace: for every dynamic
// instruction, the uops route() would emit (as queue ids instead of machine
// queue pointers) and the per-queue slot demands the atomic dispatch must
// re-check while blocked, plus the whole-trace instruction counts. Routing
// is a pure function of the instruction — independent of configuration,
// architecture variant and machine state — so the plan is computed once per
// trace, published on the trace.Slice itself, and shared by every machine
// (and every concurrent run) that replays it. The fetch processor then
// dispatches by table lookup instead of re-deriving the translation per
// instruction per run.
type dispatchPlan struct {
	insts   []isa.Inst
	entries []planEntry
	// counts are the Table 1 instruction counts for the full trace: every
	// run dispatches every instruction, so they are each run's counts.
	counts sim.Counts
}

// Queue ids used by planOp/planEntry.
const (
	planAP = iota
	planSP
	planVP
	numPlanQs
)

// planOp is one queue insertion: which instruction queue, which uop kind.
type planOp struct {
	qid  uint8
	kind uopKind
}

// planEntry is the dispatch recipe for one instruction. route() emits at
// most three uops per instruction (the exec uop plus up to two QMOVs); the
// fixed arrays keep the whole entry pointer-free and 12 bytes wide.
type planEntry struct {
	n    uint8
	need [numPlanQs]uint8
	ops  [4]planOp
}

// planQ maps a plan queue id back onto this machine's instruction queue.
func (m *machine) planQ(qid uint8) *queue.Q[uop] {
	switch qid {
	case planAP:
		return &m.apIQ
	case planSP:
		return &m.spIQ
	default:
		return &m.vpIQ
	}
}

// planFor returns sl's dispatch plan, building and publishing it on first
// use. Concurrent first uses build equivalent plans (routing is
// deterministic over the immutable instruction sequence), so whichever
// publication wins is correct.
func (m *machine) planFor(sl *trace.Slice) *dispatchPlan {
	if p, ok := sl.Aux().(*dispatchPlan); ok {
		return p
	}
	p := m.buildPlan(sl)
	sl.SetAux(p)
	return p
}

// buildPlan predecodes sl by running the authoritative route() translation
// over every instruction and compacting the result into plan entries.
func (m *machine) buildPlan(sl *trace.Slice) *dispatchPlan {
	insts := sl.Insts
	p := &dispatchPlan{insts: insts, entries: make([]planEntry, len(insts))}
	var scratch []push
	for i := range insts {
		in := &insts[i]
		p.counts.Add(in)
		scratch = m.route(scratch[:0], in)
		e := &p.entries[i]
		if len(scratch) > len(e.ops) {
			panic(fmt.Sprintf("dva: %d uops for %s exceed plan entry width", len(scratch), in))
		}
		e.n = uint8(len(scratch))
		for k, ps := range scratch {
			var qid uint8
			switch ps.q {
			case &m.apIQ:
				qid = planAP
			case &m.spIQ:
				qid = planSP
			case &m.vpIQ:
				qid = planVP
			default:
				panic("dva: route emitted an unknown instruction queue")
			}
			e.ops[k] = planOp{qid: qid, kind: ps.u.kind}
			e.need[qid]++
		}
	}
	return p
}
