package trace

import (
	"testing"

	"decvec/internal/isa"
)

func sampleInsts() []isa.Inst {
	return []isa.Inst{
		{Seq: 0, Class: isa.ClassVSetVL, VL: 8},
		{Seq: 1, Class: isa.ClassVectorLoad, Dst: isa.V(0), Base: 0x1000, VL: 8, Stride: 1, Spill: true},
		{Seq: 2, Class: isa.ClassVectorALU, Op: isa.OpAdd, Dst: isa.V(1), Src1: isa.V(0), VL: 8},
		{Seq: 3, Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(0)},
		{Seq: 4, Class: isa.ClassBranch, Op: isa.OpCmp, Src1: isa.S(0), BBEnd: true},
	}
}

func TestCollect(t *testing.T) {
	s := &Slice{TraceName: "t", Insts: sampleInsts()}
	st := Collect(s)
	if st.Name != "t" {
		t.Errorf("Name = %q", st.Name)
	}
	if st.ScalarInsts != 3 { // vsetvl, salu, branch
		t.Errorf("ScalarInsts = %d", st.ScalarInsts)
	}
	if st.VectorInsts != 2 || st.VectorOps != 16 {
		t.Errorf("V insts/ops = %d/%d", st.VectorInsts, st.VectorOps)
	}
	if st.MemInsts != 1 || st.SpillMemOps != 1 {
		t.Errorf("mem/spill = %d/%d", st.MemInsts, st.SpillMemOps)
	}
	if st.BasicBlocks != 1 {
		t.Errorf("bbs = %d", st.BasicBlocks)
	}
	if st.AvgVL() != 8 {
		t.Errorf("AvgVL = %v", st.AvgVL())
	}
	want := 16.0 / 19.0
	if got := st.Vectorization(); got != want {
		t.Errorf("Vectorization = %v want %v", got, want)
	}
	if st.SpillFraction() != 1 {
		t.Errorf("SpillFraction = %v", st.SpillFraction())
	}
	if st.VLHist[8] != 2 {
		t.Errorf("VLHist[8] = %d", st.VLHist[8])
	}
}

func TestStatsZeroValues(t *testing.T) {
	var st Stats
	if st.Vectorization() != 0 || st.AvgVL() != 0 || st.SpillFraction() != 0 {
		t.Error("zero stats should not divide by zero")
	}
	if st.String() == "" {
		t.Error("String should render")
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	s := &Slice{TraceName: "t", Insts: sampleInsts()}
	if err := Validate(s); err != nil {
		t.Errorf("unexpected: %v", err)
	}
}

func TestValidateRejectsBadSeq(t *testing.T) {
	insts := sampleInsts()
	insts[2].Seq = 99
	s := &Slice{TraceName: "t", Insts: insts}
	if err := Validate(s); err == nil {
		t.Error("expected sequence error")
	}
}

func TestValidateRejectsBadInst(t *testing.T) {
	insts := sampleInsts()
	insts[1].VL = 0 // invalid vector load
	s := &Slice{TraceName: "t", Insts: insts}
	if err := Validate(s); err == nil {
		t.Error("expected instruction error")
	}
}
