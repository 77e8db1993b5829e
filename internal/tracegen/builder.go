// Package tracegen synthesizes dynamic instruction traces with the same
// information content as the paper's Dixie traces: instruction streams
// annotated with vector lengths, vector strides and memory addresses.
//
// Traces are built from parameterized loop kernels (daxpy-like streams,
// compute-bound kernels, spill-heavy bodies, reductions with loop-carried
// scalar dependencies, gather/scatter, scalar glue code). The workload
// package composes kernels into models of the Perfect Club programs.
package tracegen

import (
	"fmt"
	"math/rand"

	"decvec/internal/isa"
	"decvec/internal/trace"
)

// chunkInsts is the capacity of one emit chunk. Emitting into fixed-size
// chunks costs one allocation per chunk and never re-copies what is already
// emitted, where appending to one growing slice climbs the whole
// append-growth ladder and allocates several times the finished trace.
const chunkInsts = 4096

// Builder accumulates a synthetic trace. Create one with New, call kernel
// methods, then Trace to obtain the result.
type Builder struct {
	name string
	// full holds the filled emit chunks in order; cur is the chunk being
	// filled. Every chunk has capacity chunkInsts, so the builder holds
	// len(full)*chunkInsts + len(cur) instructions.
	full [][]isa.Inst
	cur  []isa.Inst
	rng  *rand.Rand

	// curVL and curVS mirror the architectural VL/VS registers so kernels
	// emit vsetvl/vsetvs only on change, as compiled code does.
	curVL int
	curVS int64

	// nextAddr is the bump allocator cursor for array placement. Arrays are
	// spaced so that distinct arrays never alias.
	nextAddr uint64
}

// New returns a Builder for a trace with the given name and deterministic
// random seed.
func New(name string, seed int64) *Builder {
	return &Builder{
		name:     name,
		rng:      rand.New(rand.NewSource(seed)),
		curVL:    -1,
		curVS:    -999,
		nextAddr: 0x10000,
	}
}

// Trace returns the instructions emitted so far as a replayable in-memory
// trace. The trace gets its own right-sized copy, so the builder stays
// usable (Len, EndBB, further emits) and nothing it does later changes a
// trace it returned.
func (b *Builder) Trace() *trace.Slice {
	out := make([]isa.Inst, 0, b.Len())
	for _, c := range b.full {
		out = append(out, c...)
	}
	out = append(out, b.cur...)
	return &trace.Slice{TraceName: b.name, Insts: out}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.full)*chunkInsts + len(b.cur) }

// Array reserves a region of n 64-bit elements and returns its base
// address. Regions are padded so neighbouring arrays never overlap even
// with large strides.
func (b *Builder) Array(n int) uint64 {
	base := b.nextAddr
	b.nextAddr += uint64(n)*isa.ElemSize + 4096
	return base
}

// Rand exposes the builder's deterministic random source to kernels.
func (b *Builder) Rand() *rand.Rand { return b.rng }

// emit appends in, numbered densely from zero, and validates it in place:
// validating a local copy would move every instruction to the heap, since
// the error path keeps a pointer to it. An invalid instruction panics and
// is taken back out first, so it never reaches a trace.
func (b *Builder) emit(in isa.Inst) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]isa.Inst, 0, chunkInsts)
	}
	in.Seq = int64(b.Len())
	b.cur = append(b.cur, in)
	if err := b.cur[len(b.cur)-1].Validate(); err != nil {
		b.cur = b.cur[:len(b.cur)-1]
		panic(fmt.Sprintf("tracegen: %v", err))
	}
}

// last returns the most recently emitted instruction, or nil before the
// first. cur is empty only before the first emit or after an invalid
// instruction was taken back out of a fresh chunk.
func (b *Builder) last() *isa.Inst {
	if len(b.cur) > 0 {
		return &b.cur[len(b.cur)-1]
	}
	if len(b.full) > 0 {
		return &b.full[len(b.full)-1][chunkInsts-1]
	}
	return nil
}

// SetVL emits a vsetvl if the current vector length differs.
func (b *Builder) SetVL(vl int) {
	if vl == b.curVL {
		return
	}
	if vl < 1 || vl > isa.MaxVL {
		panic(fmt.Sprintf("tracegen: vsetvl %d", vl))
	}
	b.curVL = vl
	b.emit(isa.Inst{Class: isa.ClassVSetVL, VL: vl})
}

// SetVS emits a vsetvs if the current vector stride differs.
func (b *Builder) SetVS(vs int64) {
	if vs == b.curVS {
		return
	}
	b.curVS = vs
	b.emit(isa.Inst{Class: isa.ClassVSetVS, Stride: vs})
}

// VL returns the current vector length.
func (b *Builder) VL() int { return b.curVL }

// AAdd emits address arithmetic dst = src1 (+ src2) on the AP.
func (b *Builder) AAdd(dst, src1, src2 isa.Reg) {
	b.emit(isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: dst, Src1: src1, Src2: src2})
}

// SOp emits scalar S-register arithmetic on the SP.
func (b *Builder) SOp(op isa.Opcode, dst, src1, src2 isa.Reg) {
	b.emit(isa.Inst{Class: isa.ClassScalarALU, Op: op, Dst: dst, Src1: src1, Src2: src2})
}

// SLoad emits a scalar load from addr into an A or S register.
func (b *Builder) SLoad(dst isa.Reg, addrReg isa.Reg, addr uint64, spill bool) {
	b.emit(isa.Inst{Class: isa.ClassScalarLoad, Dst: dst, Src1: addrReg, Base: addr, Spill: spill})
}

// SStore emits a scalar store of an A or S register to addr.
func (b *Builder) SStore(data isa.Reg, addrReg isa.Reg, addr uint64, spill bool) {
	b.emit(isa.Inst{Class: isa.ClassScalarStore, Dst: data, Src1: addrReg, Base: addr, Spill: spill})
}

// VLoad emits a vector load of the current VL/VS into dst.
func (b *Builder) VLoad(dst, addrReg isa.Reg, addr uint64, spill bool) {
	b.emit(isa.Inst{
		Class: isa.ClassVectorLoad, Dst: dst, Src1: addrReg,
		Base: addr, VL: b.curVL, Stride: b.curVS, Spill: spill,
	})
}

// VStore emits a vector store of data (a V register) at the current VL/VS.
func (b *Builder) VStore(data, addrReg isa.Reg, addr uint64, spill bool) {
	b.emit(isa.Inst{
		Class: isa.ClassVectorStore, Dst: data, Src1: addrReg,
		Base: addr, VL: b.curVL, Stride: b.curVS, Spill: spill,
	})
}

// Gather emits an indexed vector load (conservatively aliased with all of
// memory by the disambiguator).
func (b *Builder) Gather(dst, addrReg isa.Reg, addr uint64) {
	b.emit(isa.Inst{Class: isa.ClassGather, Dst: dst, Src1: addrReg, Base: addr, VL: b.curVL, Stride: 1})
}

// Scatter emits an indexed vector store.
func (b *Builder) Scatter(data, addrReg isa.Reg, addr uint64) {
	b.emit(isa.Inst{Class: isa.ClassScatter, Dst: data, Src1: addrReg, Base: addr, VL: b.curVL, Stride: 1})
}

// VOp emits an element-wise vector operation dst = src1 op src2. src2 may
// be an S register (a scalar operand fed through the SVDQ in the DVA).
func (b *Builder) VOp(op isa.Opcode, dst, src1, src2 isa.Reg) {
	b.emit(isa.Inst{Class: isa.ClassVectorALU, Op: op, Dst: dst, Src1: src1, Src2: src2, VL: b.curVL})
}

// Reduce emits a vector reduction of src into the scalar register dst.
func (b *Builder) Reduce(op isa.Opcode, dst, src isa.Reg) {
	b.emit(isa.Inst{Class: isa.ClassReduce, Op: op, Dst: dst, Src1: src, VL: b.curVL})
}

// Branch emits a loop-closing conditional branch reading ctr and ends the
// basic block. Counters in A registers execute on the AP, S registers on
// the SP.
func (b *Builder) Branch(ctr isa.Reg) {
	b.emit(isa.Inst{Class: isa.ClassBranch, Op: isa.OpCmp, Src1: ctr, BBEnd: true})
}

// EndBB marks the previous instruction as a basic-block boundary without
// emitting anything (for straight-line code split by calls).
func (b *Builder) EndBB() {
	if in := b.last(); in != nil {
		in.BBEnd = true
	}
}
