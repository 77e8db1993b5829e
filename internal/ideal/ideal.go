// Package ideal computes the paper's lower bound on execution time (§5):
// ignoring all dependencies, every operation is attributed to one of the
// five machine resources — FU1, FU2, the memory port, the scalar processor
// and the scalar cache — and the busiest resource determines the minimum
// possible execution time.
package ideal

import (
	"decvec/internal/isa"
	"decvec/internal/trace"
)

// Bound holds the per-resource cycle totals and the resulting lower bound.
type Bound struct {
	// FU1 and FU2 are the balanced per-unit cycle loads: work only FU2 can
	// do (mul/div/sqrt) is pinned there, and FU1-capable work is split so
	// the maximum of the two is minimized.
	FU1, FU2 int64
	// MemPort is the address-bus occupancy: VL cycles per vector memory
	// reference, one per scalar reference (cache hits included — every
	// reference needs its address generated, but only misses and stores
	// reach memory; the paper's resource is the port, so we count bus
	// slots: scalar cache hits are excluded).
	MemPort int64
	// ScalarProc is one cycle per scalar instruction.
	ScalarProc int64
	// ScalarCache is one cycle per scalar memory access.
	ScalarCache int64
	// Cycles is the lower bound: the maximum of the five resources.
	Cycles int64
}

// Compute scans the trace and returns the bound.
//
// The memory-port estimate assumes every scalar load misses the scalar
// cache on first touch only; because the bound must stay below any
// simulated time, scalar loads are charged to the cache resource and only
// vector references and scalar stores are charged to the port. This keeps
// the bound conservative (never above the true minimum).
// declint:hotpath
func Compute(src *trace.Slice) Bound {
	var b Bound
	var fu2Only, fuAny int64
	for i := range src.Insts {
		accumulate(&b, &fuAny, &fu2Only, &src.Insts[i])
	}
	b.FU1, b.FU2 = balance(fuAny, fu2Only)
	b.Cycles = maxOf(b.FU1, b.FU2, b.MemPort, b.ScalarProc, b.ScalarCache)
	return b
}

// accumulate charges one instruction to its resources.
// declint:hotpath
func accumulate(b *Bound, fuAny, fu2Only *int64, in *isa.Inst) {
	switch in.Class {
	case isa.ClassVectorALU, isa.ClassReduce:
		if in.Op.FU1Capable() {
			*fuAny += int64(in.VL)
		} else {
			*fu2Only += int64(in.VL)
		}
	case isa.ClassVectorLoad, isa.ClassVectorStore, isa.ClassGather, isa.ClassScatter:
		b.MemPort += int64(in.VL)
	case isa.ClassScalarLoad:
		b.ScalarCache++
		b.ScalarProc++
	case isa.ClassScalarStore:
		b.ScalarCache++
		b.ScalarProc++
		b.MemPort++
	default: // declint:nonexhaustive — nop, scalar ALU, branch and vsetvl/vsetvs cost one scalar-processor slot each
		b.ScalarProc++
	}
}

// balance splits `any` cycles of FU1-capable work across the two units,
// FU2 already carrying `fu2Only` cycles, minimizing the maximum load.
func balance(any, fu2Only int64) (fu1, fu2 int64) {
	total := any + fu2Only
	fu2 = total / 2
	if fu2 < fu2Only {
		fu2 = fu2Only
	}
	return total - fu2, fu2
}

func maxOf(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
