package ref

import (
	"testing"

	"decvec/internal/isa"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// testCfg returns a configuration with small, round pipeline depths so the
// expected cycle counts below can be derived by hand:
// add depth 2, mul depth 3, chain delay 1.
func testCfg(latency int64) sim.Config {
	cfg := sim.DefaultConfig(latency)
	cfg.AddDepth = 2
	cfg.MulDepth = 3
	cfg.DivDepth = 5
	cfg.SqrtDepth = 5
	cfg.QMovDepth = 1
	return cfg
}

func mkTrace(insts ...isa.Inst) *trace.Slice {
	for i := range insts {
		insts[i].Seq = int64(i)
	}
	return &trace.Slice{TraceName: "test", Insts: insts}
}

func run(t *testing.T, cfg sim.Config, insts ...isa.Inst) *sim.Result {
	t.Helper()
	tr := mkTrace(insts...)
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("invalid test trace: %v", err)
	}
	r, err := Run(tr, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func vadd(dst, s1, s2 isa.Reg, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorALU, Op: isa.OpAdd, Dst: dst, Src1: s1, Src2: s2, VL: vl}
}

func vmul(dst, s1, s2 isa.Reg, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorALU, Op: isa.OpMul, Dst: dst, Src1: s1, Src2: s2, VL: vl}
}

func vld(dst isa.Reg, base uint64, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorLoad, Dst: dst, Base: base, VL: vl, Stride: 1}
}

func vst(data isa.Reg, base uint64, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorStore, Dst: data, Base: base, VL: vl, Stride: 1}
}

func TestScalarALUOneCycle(t *testing.T) {
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(0)})
	if r.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1", r.Cycles)
	}
	if r.Counts.ScalarInsts != 1 || r.Counts.VectorInsts != 0 {
		t.Errorf("counts: %+v", r.Counts)
	}
}

func TestSingleVectorAdd(t *testing.T) {
	// Issue at 0, FU for 8 cycles, register complete at 0+depth(2)+8 = 10.
	r := run(t, testCfg(10), vadd(isa.V(0), isa.V(1), isa.V(2), 8))
	if r.Cycles != 10 {
		t.Errorf("Cycles = %d, want 10", r.Cycles)
	}
	if r.Counts.VectorOps != 8 {
		t.Errorf("VectorOps = %d", r.Counts.VectorOps)
	}
}

func TestTwoIndependentAddsUseBothFUs(t *testing.T) {
	// First add on FU1 at 0; second on FU2 at 1 (dispatch is one per
	// cycle); completes 1+2+8 = 11.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(4), isa.V(5), 8),
		vadd(isa.V(1), isa.V(6), isa.V(7), 8))
	if r.Cycles != 11 {
		t.Errorf("Cycles = %d, want 11", r.Cycles)
	}
}

func TestFUChaining(t *testing.T) {
	// Dependent add chains one cycle behind its producer:
	// i0 at 0, i1 at 1, completes 1+2+8 = 11.
	r := run(t, testCfg(10),
		vadd(isa.V(2), isa.V(0), isa.V(1), 8),
		vadd(isa.V(3), isa.V(2), isa.V(1), 8))
	if r.Cycles != 11 {
		t.Errorf("Cycles = %d, want 11", r.Cycles)
	}
}

func TestMulGoesToFU2AddToFU1(t *testing.T) {
	// Two FU2-only muls serialize on FU2: second at 8, done 8+3+8 = 19.
	r := run(t, testCfg(10),
		vmul(isa.V(1), isa.V(0), isa.None, 8),
		vmul(isa.V(2), isa.V(0), isa.None, 8))
	if r.Cycles != 19 {
		t.Errorf("Cycles = %d, want 19", r.Cycles)
	}
	// A mul and an add run concurrently on different units.
	r = run(t, testCfg(10),
		vmul(isa.V(1), isa.V(0), isa.None, 8),
		vadd(isa.V(2), isa.V(3), isa.None, 8))
	// mul: 0+3+8 = 11; add issues at 1 on FU1 and also completes 1+2+8 = 11.
	if r.Cycles != 11 {
		t.Errorf("Cycles = %d, want 11", r.Cycles)
	}
}

func TestNoChainingAfterLoad(t *testing.T) {
	// Load at 0, bus 8 cycles, register complete at 0+L+vl = 18 (L=10).
	// The consumer cannot chain; it issues at 18 and completes 18+2+8=28.
	r := run(t, testCfg(10),
		vld(isa.V(0), 0x1000, 8),
		vadd(isa.V(1), isa.V(0), isa.None, 8))
	if r.Cycles != 28 {
		t.Errorf("Cycles = %d, want 28", r.Cycles)
	}
}

func TestLoadLatencySensitivity(t *testing.T) {
	// The same trace at two latencies differs by exactly the delta: the
	// load-use chain is fully exposed in the reference architecture.
	mk := func() []isa.Inst {
		return []isa.Inst{
			vld(isa.V(0), 0x1000, 8),
			vadd(isa.V(1), isa.V(0), isa.None, 8),
		}
	}
	r10 := run(t, testCfg(10), mk()...)
	r50 := run(t, testCfg(50), mk()...)
	if d := r50.Cycles - r10.Cycles; d != 40 {
		t.Errorf("latency delta = %d, want 40", d)
	}
}

func TestBusSerializesLoads(t *testing.T) {
	// Two independent loads share the single memory port: second on the
	// bus at 8, data complete 8+10+8 = 26.
	r := run(t, testCfg(10),
		vld(isa.V(0), 0x1000, 8),
		vld(isa.V(1), 0x2000, 8))
	if r.Cycles != 26 {
		t.Errorf("Cycles = %d, want 26", r.Cycles)
	}
	if r.Traffic.LoadElems != 16 {
		t.Errorf("LoadElems = %d", r.Traffic.LoadElems)
	}
}

func TestStoreChainsFromFU(t *testing.T) {
	// add at 0; store chains at 1, bus [1,9); add completes at 10.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8))
	if r.Cycles != 10 {
		t.Errorf("Cycles = %d, want 10", r.Cycles)
	}
	if r.Traffic.StoreElems != 8 {
		t.Errorf("StoreElems = %d", r.Traffic.StoreElems)
	}
}

func TestStoreLatencyInvisible(t *testing.T) {
	// Stores never pay memory latency: same cycles at L=10 and L=90.
	mk := func() []isa.Inst {
		return []isa.Inst{
			vadd(isa.V(0), isa.V(1), isa.V(2), 8),
			vst(isa.V(0), 0x1000, 8),
		}
	}
	a := run(t, testCfg(10), mk()...)
	b := run(t, testCfg(90), mk()...)
	if a.Cycles != b.Cycles {
		t.Errorf("store latency visible: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestWAWSerializes(t *testing.T) {
	// Second writer of V0 waits for the first to complete (0+2+8 = 10),
	// then completes 10+2+8 = 20.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.None, 8),
		vadd(isa.V(0), isa.V(2), isa.None, 8))
	if r.Cycles != 20 {
		t.Errorf("Cycles = %d, want 20", r.Cycles)
	}
}

func TestWARBlocksOverwrite(t *testing.T) {
	// add reads V0 until cycle 8; the load may only rewrite V0 then:
	// issue 8, complete 8+10+8 = 26.
	r := run(t, testCfg(10),
		vadd(isa.V(2), isa.V(0), isa.None, 8),
		vld(isa.V(0), 0x1000, 8))
	if r.Cycles != 26 {
		t.Errorf("Cycles = %d, want 26", r.Cycles)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// ld V0 at 0 (done 18); dependent add waits to 18; the next load is
	// stuck behind it in dispatch order and issues at 19 (bus long free),
	// completing 19+10+8 = 37. An out-of-order machine would have hoisted
	// it; the reference architecture cannot.
	r := run(t, testCfg(10),
		vld(isa.V(0), 0x1000, 8),
		vadd(isa.V(1), isa.V(0), isa.None, 8),
		vld(isa.V(2), 0x2000, 8))
	if r.Cycles != 37 {
		t.Errorf("Cycles = %d, want 37", r.Cycles)
	}
}

func TestScalarCacheMissAndHit(t *testing.T) {
	// Miss: bus 1 cycle, S0 at 0+1+10 = 11. Hit on the same line at 1:
	// S1 at 2. The dependent op on S0 issues at 11, done 12.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(0), Base: 0x1000},
		isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(1), Base: 0x1008},
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(2), Src1: isa.S(0)})
	if r.Cycles != 12 {
		t.Errorf("Cycles = %d, want 12", r.Cycles)
	}
	if r.ScalarCacheHits != 1 || r.ScalarCacheMisses != 1 {
		t.Errorf("cache: %d hits, %d misses", r.ScalarCacheHits, r.ScalarCacheMisses)
	}
	if r.Traffic.LoadElems != 1 {
		t.Errorf("LoadElems = %d (hits must not reach memory)", r.Traffic.LoadElems)
	}
}

func TestVectorStoreInvalidatesScalarCache(t *testing.T) {
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(0), Base: 0x1000}, // allocate line
		vst(isa.V(0), 0x1000, 8), // overwrite it
		isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(1), Base: 0x1000})
	if r.ScalarCacheMisses != 2 {
		t.Errorf("misses = %d, want 2 (vector store must invalidate)", r.ScalarCacheMisses)
	}
}

func TestReduceProducesScalar(t *testing.T) {
	// Reduce at 0, S0 ready at 0+2+8 = 10; dependent scalar op at 10,
	// done 11.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassReduce, Op: isa.OpAdd, Dst: isa.S(0), Src1: isa.V(0), VL: 8},
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1), Src1: isa.S(0)})
	if r.Cycles != 11 {
		t.Errorf("Cycles = %d, want 11", r.Cycles)
	}
}

func TestScalarOperandGatesVectorIssue(t *testing.T) {
	// S1 written at 0 (ready 1); the vector mul using it issues at 1.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1)},
		vmul(isa.V(1), isa.V(0), isa.S(1), 8))
	if r.Cycles != 12 { // 1+3+8
		t.Errorf("Cycles = %d, want 12", r.Cycles)
	}
}

func TestStateAccountingSumsToTotal(t *testing.T) {
	r := run(t, testCfg(30),
		vld(isa.V(0), 0x1000, 16),
		vadd(isa.V(1), isa.V(0), isa.None, 16),
		vmul(isa.V(2), isa.V(1), isa.None, 16),
		vst(isa.V(2), 0x8000, 16),
		vld(isa.V(3), 0x2000, 16))
	if got := r.States.Total(); got != r.Cycles {
		t.Errorf("state cycles %d != total %d", got, r.Cycles)
	}
	if r.States.Idle() == 0 {
		t.Error("a load-use chain at L=30 must show idle cycles")
	}
}

func TestBBAndSpillCounts(t *testing.T) {
	ld := vld(isa.V(0), 0x1000, 8)
	ld.Spill = true
	br := isa.Inst{Class: isa.ClassBranch, Op: isa.OpCmp, Src1: isa.A(0), BBEnd: true}
	r := run(t, testCfg(10), ld, br)
	if r.Counts.SpillMemOps != 1 || r.Counts.BasicBlocks != 1 || r.Counts.MemInsts != 1 {
		t.Errorf("counts: %+v", r.Counts)
	}
}

func TestGatherScatterTiming(t *testing.T) {
	// Gathers and scatters occupy the bus for VL cycles like any other
	// vector reference.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassGather, Dst: isa.V(0), Base: 0x1000, VL: 8, Stride: 1},
		isa.Inst{Class: isa.ClassScatter, Dst: isa.V(1), Base: 0x2000, VL: 8, Stride: 1})
	// Gather: bus [0,8), ready 18. Scatter independent (V1): bus [8,16).
	if r.Cycles != 18 {
		t.Errorf("Cycles = %d, want 18", r.Cycles)
	}
	if r.Traffic.LoadElems != 8 || r.Traffic.StoreElems != 8 {
		t.Errorf("traffic: %+v", r.Traffic)
	}
}

func TestVSetAndBranchAreOneCycle(t *testing.T) {
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassVSetVL, VL: 32},
		isa.Inst{Class: isa.ClassVSetVS, Stride: 2},
		isa.Inst{Class: isa.ClassNop},
		isa.Inst{Class: isa.ClassBranch, Op: isa.OpCmp, Src1: isa.A(0), BBEnd: true})
	if r.Cycles != 4 {
		t.Errorf("Cycles = %d, want 4", r.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []isa.Inst {
		return []isa.Inst{
			vld(isa.V(0), 0x1000, 16),
			vmul(isa.V(1), isa.V(0), isa.None, 16),
			vst(isa.V(1), 0x2000, 16),
		}
	}
	a := run(t, testCfg(30), mk()...)
	b := run(t, testCfg(30), mk()...)
	if a.Cycles != b.Cycles || a.States != b.States || a.Traffic != b.Traffic {
		t.Error("REF runs are not deterministic")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testCfg(10)
	cfg.MemLatency = 0
	if _, err := Run(mkTrace(), cfg); err == nil {
		t.Error("expected configuration error")
	}
}

// The recorder sees every instruction's issue cycle.
func TestRecorderSeesEveryIssue(t *testing.T) {
	tr := mkTrace(
		vld(isa.V(0), 0x1000, 8),
		vadd(isa.V(1), isa.V(0), isa.None, 8))
	rec := sim.NewRecorder()
	if _, err := RunRecorded(tr, testCfg(10), rec); err != nil {
		t.Fatal(err)
	}
	var seen []int64
	rec.Each(func(e *sim.Event) {
		if e.Kind == sim.EvIssue {
			seen = append(seen, e.Cycle)
		}
	})
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 18 {
		t.Errorf("issue cycles = %v, want [0 18]", seen)
	}
}
