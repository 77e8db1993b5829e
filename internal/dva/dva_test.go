package dva

import (
	"testing"

	"decvec/internal/isa"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

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
	r, err := NewRunner().Run(tr, cfg)
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

func TestEmptyTrace(t *testing.T) {
	r := run(t, testCfg(10))
	if r.Cycles != 0 {
		t.Errorf("Cycles = %d, want 0", r.Cycles)
	}
}

func TestSingleScalarInstruction(t *testing.T) {
	// FP dispatches at cycle 0 (SPIQ, visible at 1); SP executes at 1.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(0)})
	if r.Cycles < 2 || r.Cycles > 4 {
		t.Errorf("Cycles = %d, want a small dispatch+execute count", r.Cycles)
	}
	if r.Counts.ScalarInsts != 1 {
		t.Errorf("counts: %+v", r.Counts)
	}
}

func TestSingleVectorLoadTiming(t *testing.T) {
	// One load: FP at 0, AP issues at 1 or 2, data complete L+vl later,
	// QMOV drains vl. The total must track L exactly: no slip is possible
	// with a single load.
	mk := func() []isa.Inst { return []isa.Inst{vld(isa.V(0), 0x1000, 8)} }
	r10 := run(t, testCfg(10), mk()...)
	r50 := run(t, testCfg(50), mk()...)
	if d := r50.Cycles - r10.Cycles; d != 40 {
		t.Errorf("latency delta = %d, want 40", d)
	}
	if r10.Traffic.LoadElems != 8 {
		t.Errorf("LoadElems = %d", r10.Traffic.LoadElems)
	}
}

func TestLoadDataNotConsumableBeforeArrival(t *testing.T) {
	// §4.2: data cannot be consumed from the AVDQ until the last element
	// arrives. The dependent add therefore starts only after L+vl+drain.
	r := run(t, testCfg(30),
		vld(isa.V(0), 0x1000, 8),
		vadd(isa.V(1), isa.V(0), isa.None, 8))
	// Lower bound: AP issue (>=1) + L(30) + vl(8) + chain into add + vl.
	if r.Cycles < 30+8+8 {
		t.Errorf("Cycles = %d, impossibly fast", r.Cycles)
	}
}

func TestDecouplingHidesLatencyAcrossIndependentLoads(t *testing.T) {
	// Many independent load+use pairs: the AP slips ahead and loads
	// overlap, so the cost of latency is paid once, not per load. The REF
	// machine pays it per load (head-of-line blocking).
	var insts []isa.Inst
	for i := 0; i < 8; i++ {
		dst := isa.V(i % 4)
		use := isa.V(4 + i%4)
		insts = append(insts,
			vld(dst, 0x1000+uint64(i)*0x100, 8),
			vadd(use, dst, isa.None, 8))
	}
	d := run(t, testCfg(60), insts...)
	tr := mkTrace(insts...)
	rr, err := ref.NewRunner().Run(tr, testCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles >= rr.Cycles {
		t.Errorf("DVA (%d) should beat REF (%d) on independent load-use pairs", d.Cycles, rr.Cycles)
	}
	// REF pays roughly L per pair; DVA roughly once.
	if ratio := float64(rr.Cycles) / float64(d.Cycles); ratio < 1.5 {
		t.Errorf("expected a large speedup, got %.2f (ref=%d dva=%d)", ratio, rr.Cycles, d.Cycles)
	}
}

func TestStoreTwoStepCompletes(t *testing.T) {
	// A store's data arrives via the VP QMOV after the address is queued;
	// the run must drain both queues and count the traffic once.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8))
	if r.Traffic.StoreElems != 8 {
		t.Errorf("StoreElems = %d", r.Traffic.StoreElems)
	}
}

func TestStoreLatencyInvisible(t *testing.T) {
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

func TestOverlapHazardFlushes(t *testing.T) {
	// The load overlaps the queued store (same range, different length →
	// not identical): the store must drain first.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8),
		vld(isa.V(3), 0x1000, 4))
	if r.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", r.Flushes)
	}
	if r.Bypasses != 0 {
		t.Errorf("Bypasses = %d, want 0 (bypass disabled)", r.Bypasses)
	}
}

func TestIdenticalLoadFlushesWithoutBypass(t *testing.T) {
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8),
		vld(isa.V(3), 0x1000, 8))
	if r.Flushes != 1 || r.Bypasses != 0 {
		t.Errorf("flushes=%d bypasses=%d", r.Flushes, r.Bypasses)
	}
	if r.Traffic.LoadElems != 8 {
		t.Errorf("LoadElems = %d (load must go to memory)", r.Traffic.LoadElems)
	}
}

func TestBypassServicesIdenticalLoad(t *testing.T) {
	cfg := testCfg(10)
	cfg.Bypass = true
	r := run(t, cfg,
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8),
		vld(isa.V(3), 0x1000, 8))
	if r.Bypasses != 1 || r.BypassedElems != 8 {
		t.Errorf("bypasses=%d elems=%d", r.Bypasses, r.BypassedElems)
	}
	if r.Flushes != 0 {
		t.Errorf("Flushes = %d, want 0", r.Flushes)
	}
	// The load never reaches memory; the store still does.
	if r.Traffic.LoadElems != 0 || r.Traffic.StoreElems != 8 {
		t.Errorf("traffic: %+v", r.Traffic)
	}
}

func TestBypassFasterAtHighLatency(t *testing.T) {
	mk := func() []isa.Inst {
		return []isa.Inst{
			vadd(isa.V(0), isa.V(1), isa.V(2), 8),
			vst(isa.V(0), 0x1000, 8),
			vld(isa.V(3), 0x1000, 8),
			vadd(isa.V(4), isa.V(3), isa.None, 8),
		}
	}
	cfg := testCfg(80)
	noByp := run(t, cfg, mk()...)
	cfg.Bypass = true
	byp := run(t, cfg, mk()...)
	if byp.Cycles >= noByp.Cycles {
		t.Errorf("bypass (%d) should beat flush (%d) at L=80", byp.Cycles, noByp.Cycles)
	}
	// The bypassed chain avoids memory latency entirely: the gap should
	// be on the order of L.
	if noByp.Cycles-byp.Cycles < 40 {
		t.Errorf("bypass saved only %d cycles", noByp.Cycles-byp.Cycles)
	}
}

func TestBypassRequiresIdentical(t *testing.T) {
	cfg := testCfg(10)
	cfg.Bypass = true
	// Overlapping but different stride: must flush, not bypass.
	ld := isa.Inst{Class: isa.ClassVectorLoad, Dst: isa.V(3), Base: 0x1000, VL: 8, Stride: 2}
	r := run(t, cfg,
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8),
		ld)
	if r.Bypasses != 0 || r.Flushes != 1 {
		t.Errorf("bypasses=%d flushes=%d", r.Bypasses, r.Flushes)
	}
}

func TestGatherDrainsStoreQueue(t *testing.T) {
	// A gather conservatively aliases all memory: any queued store forces
	// a flush even at an unrelated address.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x8000, 8),
		isa.Inst{Class: isa.ClassGather, Dst: isa.V(3), Base: 0x1000, VL: 8, Stride: 1})
	if r.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", r.Flushes)
	}
}

func TestScalarLoadToSPViaASDQ(t *testing.T) {
	// Scalar load (AP) feeds an S register (SP) through the ASDQ; the
	// dependent scalar op runs after the data round-trip.
	r := run(t, testCfg(20),
		isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(0), Base: 0x1000},
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1), Src1: isa.S(0)})
	if r.Cycles < 20 {
		t.Errorf("Cycles = %d: scalar miss latency not paid", r.Cycles)
	}
	if r.ScalarCacheMisses != 1 {
		t.Errorf("misses = %d", r.ScalarCacheMisses)
	}
}

func TestScalarStoreFromSPViaSADQ(t *testing.T) {
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(0)},
		isa.Inst{Class: isa.ClassScalarStore, Dst: isa.S(0), Base: 0x1000})
	if r.Traffic.StoreElems != 1 {
		t.Errorf("StoreElems = %d", r.Traffic.StoreElems)
	}
}

func TestScalarStoreFromAPDirect(t *testing.T) {
	// A-register store data never travels through the SADQ.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.A(1)},
		isa.Inst{Class: isa.ClassScalarStore, Dst: isa.A(1), Base: 0x1000})
	if r.Traffic.StoreElems != 1 {
		t.Errorf("StoreElems = %d", r.Traffic.StoreElems)
	}
}

func TestScalarOperandViaSVDQ(t *testing.T) {
	// A vector instruction with an S operand waits for the SP to push it
	// through the SVDQ.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1)},
		vmul(isa.V(1), isa.V(0), isa.S(1), 8))
	if r.Counts.VectorInsts != 1 {
		t.Errorf("counts: %+v", r.Counts)
	}
}

func TestReductionRoundTrip(t *testing.T) {
	// Reduce (VP) -> VSDQ -> SP; the dependent scalar op completes.
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassReduce, Op: isa.OpAdd, Dst: isa.S(0), Src1: isa.V(0), VL: 8},
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1), Src1: isa.S(0)})
	if r.Cycles < 8 {
		t.Errorf("Cycles = %d, too fast for a reduction round trip", r.Cycles)
	}
}

func TestAPReceivesSOperandViaSAAQ(t *testing.T) {
	// Address arithmetic reading an S register: the SP forwards the value
	// through the SAAQ (the DYFESM lockstep path).
	r := run(t, testCfg(10),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1)},
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.A(1), Src1: isa.A(1), Src2: isa.S(1)},
		vld(isa.V(0), 0x1000, 8))
	if r.Cycles == 0 {
		t.Error("no cycles")
	}
}

func TestLockstepRecurrenceNotFasterThanREF(t *testing.T) {
	// The distance-1 reduction recurrence: every iteration's load address
	// depends on the previous reduction. The DVA cannot slip and should
	// not beat REF meaningfully (paper §5, DYFESM).
	var insts []isa.Inst
	for i := 0; i < 12; i++ {
		insts = append(insts,
			isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.A(1), Src1: isa.A(1), Src2: isa.S(1)},
			vld(isa.V(0), 0x1000+uint64(i)*0x100, 8),
			vmul(isa.V(1), isa.V(0), isa.S(1), 8),
			isa.Inst{Class: isa.ClassReduce, Op: isa.OpAdd, Dst: isa.S(1), Src1: isa.V(1), VL: 8})
	}
	d := run(t, testCfg(60), insts...)
	rr, err := ref.NewRunner().Run(mkTrace(insts...), testCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(rr.Cycles) / float64(d.Cycles); ratio > 1.15 {
		t.Errorf("lockstep loop should not speed up, got %.2f (ref=%d dva=%d)", ratio, rr.Cycles, d.Cycles)
	}
}

func TestAVDQHistogramCoversEveryCycle(t *testing.T) {
	r := run(t, testCfg(30),
		vld(isa.V(0), 0x1000, 8),
		vld(isa.V(1), 0x2000, 8),
		vadd(isa.V(2), isa.V(0), isa.V(1), 8))
	if r.AVDQBusy == nil || r.AVDQBusy.Total() != r.Cycles {
		t.Errorf("AVDQ histogram total %v != cycles %d", r.AVDQBusy.Total(), r.Cycles)
	}
	if r.VADQBusy == nil || r.VADQBusy.Total() != r.Cycles {
		t.Error("VADQ histogram mismatch")
	}
}

func TestStateAccountingSumsToTotal(t *testing.T) {
	r := run(t, testCfg(30),
		vld(isa.V(0), 0x1000, 16),
		vadd(isa.V(1), isa.V(0), isa.None, 16),
		vmul(isa.V(2), isa.V(1), isa.None, 16),
		vst(isa.V(2), 0x8000, 16))
	if got := r.States.Total(); got != r.Cycles {
		t.Errorf("state cycles %d != total %d", got, r.Cycles)
	}
}

func TestSmallAVDQBackpressures(t *testing.T) {
	// With a 1-slot AVDQ the AP cannot run ahead; with 256 it can. Many
	// independent loads must therefore run slower with the small queue.
	var insts []isa.Inst
	for i := 0; i < 10; i++ {
		insts = append(insts, vld(isa.V(i%8), 0x1000+uint64(i)*0x100, 8))
	}
	small := testCfg(50)
	small.AVDQSize = 1
	big := testCfg(50)
	a := run(t, small, insts...)
	b := run(t, big, insts...)
	if a.Cycles <= b.Cycles {
		t.Errorf("1-slot AVDQ (%d) should be slower than 256 (%d)", a.Cycles, b.Cycles)
	}
}

func TestStrictStoreOrdering(t *testing.T) {
	// A scalar store between two vector stores: all three drain (strict
	// program order across both queues) and the run terminates.
	r := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.V(2), 8),
		vst(isa.V(0), 0x1000, 8),
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(0)},
		isa.Inst{Class: isa.ClassScalarStore, Dst: isa.S(0), Base: 0x4000},
		vst(isa.V(0), 0x2000, 8))
	if r.Traffic.StoreElems != 17 {
		t.Errorf("StoreElems = %d, want 17", r.Traffic.StoreElems)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []isa.Inst {
		return []isa.Inst{
			vld(isa.V(0), 0x1000, 16),
			vmul(isa.V(1), isa.V(0), isa.None, 16),
			vst(isa.V(1), 0x2000, 16),
			vld(isa.V(2), 0x2000, 16),
		}
	}
	a := run(t, testCfg(30), mk()...)
	b := run(t, testCfg(30), mk()...)
	if a.Cycles != b.Cycles || a.States != b.States || a.Traffic != b.Traffic {
		t.Error("DVA runs are not deterministic")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testCfg(10)
	cfg.IQSize = 0
	if _, err := NewRunner().Run(mkTrace(), cfg); err == nil {
		t.Error("expected configuration error")
	}
}

func TestBranchesDoNotStallFetch(t *testing.T) {
	// Perfect branch prediction: a branch-heavy trace executes at about
	// one instruction per cycle.
	var insts []isa.Inst
	for i := 0; i < 50; i++ {
		insts = append(insts,
			isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(0)},
			isa.Inst{Class: isa.ClassBranch, Op: isa.OpCmp, Src1: isa.S(0), BBEnd: true})
	}
	r := run(t, testCfg(10), insts...)
	if r.Cycles > int64(len(insts))+20 {
		t.Errorf("Cycles = %d for %d instructions: branches are stalling fetch", r.Cycles, len(insts))
	}
	if r.Counts.BasicBlocks != 50 {
		t.Errorf("BasicBlocks = %d", r.Counts.BasicBlocks)
	}
}

func TestLoadStreakCannotStarveStores(t *testing.T) {
	// Alternating store/load pairs with a tiny VSAQ. Loads normally win
	// every bus race (the AP steps before the store engine), so each pair
	// queues a store while draining none: without the storePressure
	// priority flip the VSAQ fills and the AP stalls on store pushes. The
	// flip hands the store engine the bus as soon as a queue is half full,
	// so a store push must never find the VSAQ full.
	cfg := testCfg(20)
	cfg.VSAQSize = 4
	cfg.VADQSize = 4
	var insts []isa.Inst
	insts = append(insts, vadd(isa.V(0), isa.None, isa.None, 8))
	for i := 0; i < 24; i++ {
		insts = append(insts,
			vst(isa.V(0), 0x10_0000+uint64(i)*0x100, 8),
			vld(isa.V(1+i%4), 0x80_0000+uint64(i)*0x100, 8))
	}
	r := run(t, cfg, insts...)

	if n := r.Stalls[sim.StallAPVSAQ]; n != 0 {
		t.Errorf("AP stalled %d cycles on a full VSAQ; pressure arbitration must bound the backlog", n)
	}
	q, ok := r.QueueStatNamed("VSAQ")
	if !ok {
		t.Fatal("no VSAQ stats")
	}
	if q.Pushes != 24 {
		t.Errorf("VSAQ pushes = %d, want 24", q.Pushes)
	}
	if r.Traffic.StoreElems != 24*8 {
		t.Errorf("StoreElems = %d, want %d", r.Traffic.StoreElems, 24*8)
	}
}
