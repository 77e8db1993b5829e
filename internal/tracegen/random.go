package tracegen

import (
	"math/rand"

	"decvec/internal/isa"
)

// Random synthesizes a well-formed but otherwise arbitrary trace of about n
// instructions: random mixes of scalar and vector arithmetic, loads, stores
// (including deliberate overlaps and exact store/load pairs to exercise
// disambiguation and the bypass), reductions, scalar operands, gathers,
// scatters and branches. Any trace it produces must simulate to completion
// on both architectures — the cross-simulator property tests rely on that.
func Random(seed int64, n int) *Builder {
	b := New("random", seed)
	r := b.rng
	// A small set of memory regions; reusing them makes address overlap
	// (and therefore hazards, flushes and bypasses) common.
	regions := make([]uint64, 6)
	for i := range regions {
		regions[i] = b.Array(4 * isa.MaxVL)
	}
	region := func() uint64 {
		base := regions[r.Intn(len(regions))]
		return base + uint64(r.Intn(3*isa.MaxVL))*isa.ElemSize
	}
	b.SetVL(1 + r.Intn(isa.MaxVL))
	b.SetVS(1)
	// lastVecStore remembers a recent vector store so a later load can be
	// made exactly identical (the bypass case); haveVecStore is set once
	// there is one.
	var lastVecStore isa.Inst
	haveVecStore := false

	for b.Len() < n {
		switch r.Intn(16) {
		case 0:
			b.SetVL(1 + r.Intn(isa.MaxVL))
		case 1:
			stride := int64(1 + r.Intn(4))
			if r.Intn(4) == 0 {
				stride = -stride
			}
			b.SetVS(stride)
		case 2, 3:
			// Vector ALU, sometimes with a scalar operand.
			src2 := isa.V(r.Intn(isa.NumVRegs))
			if r.Intn(4) == 0 {
				src2 = isa.S(r.Intn(isa.NumSRegs))
			}
			op := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd}[r.Intn(5)]
			b.VOp(op, isa.V(r.Intn(isa.NumVRegs)), isa.V(r.Intn(isa.NumVRegs)), src2)
		case 4, 5:
			b.VLoad(isa.V(r.Intn(isa.NumVRegs)), isa.A(1+r.Intn(5)), region(), false)
		case 6:
			addr := region()
			data := isa.V(r.Intn(isa.NumVRegs))
			b.VStore(data, isa.A(1+r.Intn(5)), addr, false)
			lastVecStore, haveVecStore = *b.last(), true
		case 7:
			// An exact reload of a recent store: bypass-eligible whenever
			// the store is still queued.
			if haveVecStore {
				saved := b.curVL
				b.SetVL(lastVecStore.VL)
				b.SetVS(lastVecStore.Stride)
				b.VLoad(isa.V(r.Intn(isa.NumVRegs)), isa.A(1+r.Intn(5)), lastVecStore.Base, true)
				b.SetVL(saved)
				b.SetVS(1)
			}
		case 8:
			b.Reduce(isa.OpAdd, isa.S(r.Intn(isa.NumSRegs)), isa.V(r.Intn(isa.NumVRegs)))
		case 9:
			// Scalar arithmetic on the SP.
			b.SOp(isa.OpAdd, isa.S(r.Intn(isa.NumSRegs)), isa.S(r.Intn(isa.NumSRegs)), isa.S(r.Intn(isa.NumSRegs)))
		case 10:
			// Address arithmetic on the AP, sometimes with an S operand
			// (the SAAQ path).
			src2 := isa.None
			if r.Intn(3) == 0 {
				src2 = isa.S(r.Intn(isa.NumSRegs))
			}
			b.emit(isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd,
				Dst: isa.A(r.Intn(isa.NumARegs)), Src1: isa.A(r.Intn(isa.NumARegs)), Src2: src2})
		case 11:
			// Scalar load to S or A.
			if r.Intn(2) == 0 {
				b.SLoad(isa.S(r.Intn(isa.NumSRegs)), isa.A(6), region(), false)
			} else {
				b.SLoad(isa.A(r.Intn(isa.NumARegs)), isa.A(6), region(), false)
			}
		case 12:
			// Scalar store from S or A.
			if r.Intn(2) == 0 {
				b.SStore(isa.S(r.Intn(isa.NumSRegs)), isa.A(6), region(), false)
			} else {
				b.SStore(isa.A(r.Intn(isa.NumARegs)), isa.A(6), region(), false)
			}
		case 13:
			if r.Intn(2) == 0 {
				b.Gather(isa.V(r.Intn(isa.NumVRegs)), isa.A(1+r.Intn(5)), region())
			} else {
				b.Scatter(isa.V(r.Intn(isa.NumVRegs)), isa.A(1+r.Intn(5)), region())
			}
		case 14:
			// Branch on either processor.
			if r.Intn(2) == 0 {
				b.Branch(isa.A(r.Intn(isa.NumARegs)))
			} else {
				b.Branch(isa.S(r.Intn(isa.NumSRegs)))
			}
		default:
			b.emit(isa.Inst{Class: isa.ClassNop})
		}
	}
	return b
}

// Rng exposes the deterministic source used by Random (test support).
func (b *Builder) Rng() *rand.Rand { return b.rng }
