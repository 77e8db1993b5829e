package ooo

import (
	"testing"

	"decvec/internal/isa"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/trace"
	"decvec/internal/tracegen"
)

func testCfg(latency int64) Config {
	cfg := DefaultConfig(latency)
	cfg.AddDepth = 2
	cfg.MulDepth = 3
	cfg.QMovDepth = 1
	return cfg
}

func mkTrace(insts ...isa.Inst) *trace.Slice {
	for i := range insts {
		insts[i].Seq = int64(i)
	}
	return &trace.Slice{TraceName: "test", Insts: insts}
}

func vld(dst isa.Reg, base uint64, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorLoad, Dst: dst, Base: base, VL: vl, Stride: 1}
}

func vadd(dst, s1, s2 isa.Reg, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorALU, Op: isa.OpAdd, Dst: dst, Src1: s1, Src2: s2, VL: vl}
}

func vst(data isa.Reg, base uint64, vl int) isa.Inst {
	return isa.Inst{Class: isa.ClassVectorStore, Dst: data, Base: base, VL: vl, Stride: 1}
}

func run(t *testing.T, cfg Config, insts ...isa.Inst) *sim.Result {
	t.Helper()
	r, err := Run(mkTrace(insts...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidate(t *testing.T) {
	cfg := testCfg(10)
	cfg.Window = 0
	if _, err := Run(mkTrace(), cfg); err == nil {
		t.Error("window 0 accepted")
	}
	cfg = testCfg(10)
	cfg.PhysRegs = 4
	if _, err := Run(mkTrace(), cfg); err == nil {
		t.Error("too few physical registers accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	r := run(t, testCfg(10))
	if r.Cycles != 0 {
		t.Errorf("Cycles = %d", r.Cycles)
	}
}

func TestHoistsIndependentLoadPastUse(t *testing.T) {
	// ld V0; add V1<-V0 (waits); ld V2 — the out-of-order machine issues
	// the second load under the stalled add; the reference one cannot.
	mk := func() []isa.Inst {
		return []isa.Inst{
			vld(isa.V(0), 0x1000, 8),
			vadd(isa.V(1), isa.V(0), isa.None, 8),
			vld(isa.V(2), 0x2000, 8),
		}
	}
	o := run(t, testCfg(50), mk()...)
	rr, err := ref.Run(mkTrace(mk()...), testCfg(50).Config)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cycles >= rr.Cycles {
		t.Errorf("OOO (%d) should beat REF (%d) by hoisting the load", o.Cycles, rr.Cycles)
	}
	// The hoisted load overlaps the first's latency: the gap is about L.
	if rr.Cycles-o.Cycles < 30 {
		t.Errorf("hoisting saved only %d cycles", rr.Cycles-o.Cycles)
	}
}

func TestRenamingRemovesWAW(t *testing.T) {
	// Two independent adds to the same architectural register: the
	// renamed machine runs them concurrently on both units.
	o := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.None, 8),
		vadd(isa.V(0), isa.V(2), isa.None, 8))
	// Issue at 0 and 1; completions 10 and 11.
	if o.Cycles != 11 {
		t.Errorf("Cycles = %d, want 11 (WAW should be renamed away)", o.Cycles)
	}
}

func TestMemoryOrderingLoadAfterOverlappingStore(t *testing.T) {
	// The load overlaps the older store and must not pass it.
	o := run(t, testCfg(10),
		vadd(isa.V(0), isa.V(1), isa.None, 8),
		vst(isa.V(0), 0x1000, 8),
		vld(isa.V(2), 0x1000, 8),
		vadd(isa.V(3), isa.V(2), isa.None, 8))
	// Store chains off the add at 1, bus [1,9); load earliest 9; data at
	// 9+10+8 = 27; final add completes 27+2+8 = 37.
	if o.Cycles != 37 {
		t.Errorf("Cycles = %d, want 37", o.Cycles)
	}
}

func TestLoadsMayPassDisjointStore(t *testing.T) {
	// A load at a disjoint address may issue before an older store whose
	// data is not ready yet.
	mk := func(loadBase uint64) []isa.Inst {
		return []isa.Inst{
			vld(isa.V(4), 0x9000, 8),              // keeps V0's producer busy
			vadd(isa.V(0), isa.V(4), isa.None, 8), // store data, waits on load
			vst(isa.V(0), 0x1000, 8),
			vld(isa.V(2), loadBase, 8),
		}
	}
	disjoint := run(t, testCfg(50), mk(0x5000)...)
	overlapping := run(t, testCfg(50), mk(0x1000)...)
	if disjoint.Cycles >= overlapping.Cycles {
		t.Errorf("disjoint load (%d) should finish before overlapping one (%d)",
			disjoint.Cycles, overlapping.Cycles)
	}
}

func TestWindowScaling(t *testing.T) {
	// More window never hurts; for a burst of dependent pairs it helps.
	var insts []isa.Inst
	for i := 0; i < 8; i++ {
		insts = append(insts,
			vld(isa.V(i%4), 0x1000+uint64(i)*0x200, 8),
			vadd(isa.V(4+i%4), isa.V(i%4), isa.None, 8))
	}
	var prev int64 = 1 << 62
	for _, w := range []int{1, 4, 16, 64} {
		cfg := testCfg(60)
		cfg.Window = w
		r, err := Run(mkTrace(insts...), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles > prev {
			t.Errorf("window %d slower than smaller window: %d > %d", w, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}

func TestPhysRegPressure(t *testing.T) {
	// With only 8 physical registers (= architectural) renaming cannot
	// run ahead; with 32 it can. Independent load bursts show it.
	var insts []isa.Inst
	for i := 0; i < 12; i++ {
		insts = append(insts, vld(isa.V(i%8), 0x1000+uint64(i)*0x200, 8))
	}
	small := testCfg(60)
	small.PhysRegs = 8
	big := testCfg(60)
	big.PhysRegs = 64
	a := run(t, small, insts...)
	b := run(t, big, insts...)
	if a.Cycles < b.Cycles {
		t.Errorf("fewer physical registers cannot be faster: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestStateAccounting(t *testing.T) {
	r := run(t, testCfg(30),
		vld(isa.V(0), 0x1000, 16),
		vadd(isa.V(1), isa.V(0), isa.None, 16),
		vst(isa.V(1), 0x2000, 16))
	if r.States.Total() != r.Cycles {
		t.Errorf("state total %d != cycles %d", r.States.Total(), r.Cycles)
	}
}

func TestRandomTracesTerminateAndConserve(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		tr := tracegen.Random(seed, 300).Trace()
		cfg := testCfg(1 + (seed*11)%100)
		if seed%3 == 0 {
			cfg.Window = 4
		}
		r, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var storeElems int64
		for i := range tr.Insts {
			if in := &tr.Insts[i]; in.Class.IsStore() {
				storeElems += in.Ops()
			}
		}
		if r.Traffic.StoreElems != storeElems {
			t.Errorf("seed %d: store traffic %d != %d", seed, r.Traffic.StoreElems, storeElems)
		}
		// OOO fetches every instruction exactly once: its dynamic
		// instruction mix is REF's.
		refRes, err := ref.Run(tr, cfg.Config)
		if err != nil {
			t.Fatalf("seed %d: REF: %v", seed, err)
		}
		if r.Counts != refRes.Counts {
			t.Errorf("seed %d: counts differ from REF: %+v vs %+v", seed, r.Counts, refRes.Counts)
		}
		if r.States.Total() != r.Cycles {
			t.Errorf("seed %d: state accounting off", seed)
		}
		// Determinism.
		again, err := Run(tr, cfg)
		if err != nil || again.Cycles != r.Cycles {
			t.Errorf("seed %d: not deterministic", seed)
		}
	}
}

func TestScalarChainsExecute(t *testing.T) {
	r := run(t, testCfg(20),
		isa.Inst{Class: isa.ClassScalarLoad, Dst: isa.S(0), Base: 0x100},
		isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.S(1), Src1: isa.S(0)},
		isa.Inst{Class: isa.ClassScalarStore, Dst: isa.S(1), Base: 0x200},
		isa.Inst{Class: isa.ClassBranch, Op: isa.OpCmp, Src1: isa.S(1), BBEnd: true})
	if r.Counts.ScalarInsts != 4 || r.Counts.BasicBlocks != 1 {
		t.Errorf("counts: %+v", r.Counts)
	}
	if r.Traffic.StoreElems != 1 {
		t.Errorf("traffic: %+v", r.Traffic)
	}
}
