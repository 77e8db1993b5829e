package tracegen

import (
	"encoding/hex"
	"slices"
	"testing"

	"decvec/internal/isa"
	"decvec/internal/trace"
)

// allKernels invokes every kernel once so structural tests cover them all.
func allKernels(b *Builder) {
	b.Daxpy(16, 3)
	b.Copy(16, 2)
	b.ComputeBound(16, 2, 5)
	b.Stencil(16, 2)
	b.Spill(16, 2, 2, 3)
	b.SpillPipelined(16, 5, 2)
	b.SpillEager(16, 5)
	b.SoftPipeDaxpy(16, 4)
	b.DotReduce(16, 3, true)
	b.DotReduce(16, 3, false)
	b.LoadBurst(16, 2, 4)
	b.GatherScatter(16, 2)
	b.ScalarBlock(60, 30, 50)
	b.ScalarRecurrence(5)
	b.StridedSweep(16, 2, 4)
}

func TestAllKernelsProduceValidTraces(t *testing.T) {
	b := New("kernels", 1)
	allKernels(b)
	tr := b.Trace()
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *trace.Slice {
		b := New("d", 42)
		allKernels(b)
		return b.Trace()
	}
	a, c := mk(), mk()
	if a.Len() != c.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), c.Len())
	}
	for i := range a.Insts {
		if a.Insts[i] != c.Insts[i] {
			t.Fatalf("instruction %d differs: %s vs %s", i, a.Insts[i].String(), c.Insts[i].String())
		}
	}
}

func TestSeedChangesScalarBlock(t *testing.T) {
	mk := func(seed int64) *trace.Slice {
		b := New("s", seed)
		b.ScalarBlock(100, 30, 0)
		return b.Trace()
	}
	a, c := mk(1), mk(2)
	same := a.Len() == c.Len()
	if same {
		for i := range a.Insts {
			if a.Insts[i] != c.Insts[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical scalar blocks")
	}
}

func TestSetVLDedup(t *testing.T) {
	b := New("vl", 1)
	b.SetVL(16)
	b.SetVL(16) // no-op
	b.SetVL(32)
	tr := b.Trace()
	count := 0
	for _, in := range tr.Insts {
		if in.Class == isa.ClassVSetVL {
			count++
		}
	}
	if count != 2 {
		t.Errorf("vsetvl count = %d, want 2", count)
	}
	if b.VL() != 32 {
		t.Errorf("VL() = %d", b.VL())
	}
}

func TestSetVLPanicsOutOfRange(t *testing.T) {
	b := New("vl", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.SetVL(isa.MaxVL + 1)
}

func TestArrayRegionsDisjoint(t *testing.T) {
	b := New("arr", 1)
	a1 := b.Array(100)
	a2 := b.Array(100)
	if a2 < a1+100*isa.ElemSize {
		t.Errorf("arrays overlap: %#x then %#x", a1, a2)
	}
}

func TestSpillPairsAreIdentical(t *testing.T) {
	// Every spill reload must exactly match an earlier spill store: same
	// base, VL and stride — that is what makes it bypass-eligible.
	b := New("spill", 1)
	b.Spill(32, 4, 3, 2)
	tr := b.Trace()
	stores := map[uint64]isa.Inst{}
	reloads := 0
	for _, in := range tr.Insts {
		if !in.Spill {
			continue
		}
		switch in.Class {
		case isa.ClassVectorStore:
			stores[in.Base] = in
		case isa.ClassVectorLoad:
			reloads++
			st, ok := stores[in.Base]
			if !ok {
				t.Fatalf("reload %s without a prior store", in.String())
			}
			if st.VL != in.VL || st.Stride != in.Stride {
				t.Fatalf("spill pair mismatch: %s vs %s", st.String(), in.String())
			}
		}
	}
	if reloads != 12 { // 3 spills x 4 iterations
		t.Errorf("reloads = %d, want 12", reloads)
	}
}

func TestSpillPipelinedReloadTrailsStore(t *testing.T) {
	// The reload of iteration i targets the slot stored in iteration i-1.
	b := New("sp", 1)
	b.SpillPipelined(16, 6, 1)
	tr := b.Trace()
	lastStore := map[uint64]int{}
	for i, in := range tr.Insts {
		if !in.Spill {
			continue
		}
		switch in.Class {
		case isa.ClassVectorStore:
			lastStore[in.Base] = i
		case isa.ClassVectorLoad:
			at, ok := lastStore[in.Base]
			if !ok {
				t.Fatalf("reload at %d without prior store", i)
			}
			if i-at > 20 {
				t.Errorf("reload at %d too far from store at %d", i, at)
			}
		}
	}
}

func TestScalarBlockRespectsMemPct(t *testing.T) {
	b := New("sb", 3)
	b.ScalarBlock(2000, 20, 0)
	st := trace.Collect(b.Trace())
	frac := float64(st.MemInsts) / float64(st.ScalarInsts)
	if frac < 0.12 || frac > 0.28 {
		t.Errorf("memory fraction %.2f far from requested 0.20", frac)
	}
}

func TestScalarBlockSpillPairsComplete(t *testing.T) {
	// Every scalar spill store gets a matching reload (possibly in the
	// trailing drain).
	b := New("sb", 3)
	b.ScalarBlock(500, 30, 80)
	var stores, loads int
	for _, in := range b.Trace().Insts {
		if !in.Spill {
			continue
		}
		switch in.Class {
		case isa.ClassScalarStore:
			stores++
		case isa.ClassScalarLoad:
			loads++
		}
	}
	if stores == 0 {
		t.Fatal("no scalar spills generated")
	}
	if stores != loads {
		t.Errorf("spill stores %d != reloads %d", stores, loads)
	}
}

func TestDotReduceCarriedUsesSAAQPath(t *testing.T) {
	// The carried variant must contain address arithmetic reading an S
	// register (the AP-waits-for-SP dependence).
	b := New("dr", 1)
	b.DotReduce(16, 3, true)
	found := false
	for _, in := range b.Trace().Insts {
		if in.Class == isa.ClassScalarALU && in.Dst.Kind == isa.RegA && in.Src2.Kind == isa.RegS {
			found = true
			break
		}
	}
	if !found {
		t.Error("carried reduction lacks the A<-S dependence")
	}
	// The uncarried variant must not have it.
	b2 := New("dr2", 1)
	b2.DotReduce(16, 3, false)
	for _, in := range b2.Trace().Insts {
		if in.Class == isa.ClassScalarALU && in.Dst.Kind == isa.RegA && in.Src2.Kind == isa.RegS {
			t.Error("uncarried reduction has a carried dependence")
		}
	}
}

func TestLoadBurstClampsBurst(t *testing.T) {
	b := New("lb", 1)
	b.LoadBurst(16, 1, 99) // clamped to 6
	loads := 0
	for _, in := range b.Trace().Insts {
		if in.Class == isa.ClassVectorLoad {
			loads++
		}
	}
	if loads != 6 {
		t.Errorf("loads = %d, want 6", loads)
	}
}

func TestStridedSweepUsesStride(t *testing.T) {
	b := New("ss", 1)
	b.StridedSweep(16, 2, 8)
	found := false
	for _, in := range b.Trace().Insts {
		if in.Class == isa.ClassVectorLoad && in.Stride == 8 {
			found = true
		}
	}
	if !found {
		t.Error("no strided load emitted")
	}
}

func TestEndBBMarksLastInstruction(t *testing.T) {
	b := New("bb", 1)
	b.SOp(isa.OpAdd, isa.S(0), isa.S(1), isa.None)
	b.EndBB()
	tr := b.Trace()
	if !tr.Insts[len(tr.Insts)-1].BBEnd {
		t.Error("EndBB did not mark")
	}
}

func TestEmitValidatesInstruction(t *testing.T) {
	b := New("bad", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid instruction")
		}
	}()
	// Vector op without setting VL first (VL = -1 -> invalid).
	b.VOp(isa.OpAdd, isa.V(0), isa.V(1), isa.None)
}

// randomTraceHashes pins trace.Hash of Random's output for a few seeds, so
// the cross-simulator tests keep replaying the same traces.
var randomTraceHashes = []struct {
	seed int64
	n    int
	hash string
}{
	{0, 400, "995e37528a1c70c0734f802f22c869a7a6162f471be767b7f9b385ec6215726f"},
	{0, 2000, "b922f1e77d96536795d282e420d8139742197dac138656dd788847a66348685f"},
	{1, 400, "4a0118e446739cb12c5b75b926efb371221846e07f805caa7c82136cbbdcc092"},
	{1, 2000, "556a6908d2f4dce60a0849ae375e6b3253bc40a3d17a9728308fae6a7d554e45"},
	{7, 400, "d2d059bc0aa7d7c1d2dcedc746e94d8a08c44bf6632b39269be408ee90efee97"},
	{7, 2000, "20ffd815c1cde2b38214a525e388aa5b9d9a135a9b8bf339907f18d835f229eb"},
	{42, 400, "7902c35e82dfc14328093752338be9581000bbab6a5aebe80f7bbdc98d9cdb3a"},
	{42, 2000, "0dda43d4fab89d9e999acd621750afe43865d2072d74508ae0fb0ddc0269617f"},
	{100, 400, "44e530003ed643c4092a39021ccbcc99a994c9b1ae57d34672f37f3d8ab9a123"},
	{100, 2000, "45e626a109edd28c62f482d1d10f8ef2508fe23e1f2ee55d5ab99f6a1215e8f5"},
	{200, 400, "0dd8ee92fdc2b851fc7671da9657368946892594fb0641de89fc2452dc04fff8"},
	{200, 2000, "233a0ea410430bbac695cf3135a8be201cf38ebd4da88fd29593bb7d6af65c87"},
	{300, 400, "108cab0ec5514868bd92e6970a6df250d0d324b43de970f084418e295038a9dd"},
	{300, 2000, "5ebc2e99b6b55afdebc8959cfeb2f1cc7c7fc32a29d27e53aa8a2c0bb3350d68"},
}

func TestRandomTraceHashes(t *testing.T) {
	for _, g := range randomTraceHashes {
		sum, err := trace.Hash(Random(g.seed, g.n).Trace())
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum[:]); got != g.hash {
			t.Errorf("Random(%d, %d): trace hash %s, want %s", g.seed, g.n, got, g.hash)
		}
	}
}

// scalarAdd emits one valid instruction.
func scalarAdd(b *Builder) { b.SOp(isa.OpAdd, isa.S(0), isa.S(1), isa.S(2)) }

// emitInvalid emits a vector op with VL unset, recovering the panic, and
// reports whether it panicked.
func emitInvalid(b *Builder) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	b.VOp(isa.OpAdd, isa.V(0), isa.V(1), isa.None)
	return false
}

func TestBuilderAllocsPerChunk(t *testing.T) {
	const n = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		b := New("allocs", 1)
		for i := 0; i < n; i++ {
			scalarAdd(b)
		}
		if b.Trace().Len() != n {
			t.Fatal("short trace")
		}
	})
	// One allocation per chunk, plus a small constant: the builder, its
	// random source, the growth of the chunk list, and the trace.
	chunks := (n + chunkInsts - 1) / chunkInsts
	if max := float64(chunks + 16); allocs > max {
		t.Errorf("%v allocations for %d instructions, want at most %v", allocs, n, max)
	}
}

func TestEndBBAndLenAcrossChunkBoundary(t *testing.T) {
	b := New("chunks", 1)
	for i := 0; i < chunkInsts; i++ {
		scalarAdd(b)
	}
	if b.Len() != chunkInsts {
		t.Fatalf("Len = %d, want %d", b.Len(), chunkInsts)
	}
	b.EndBB()
	scalarAdd(b)
	if b.Len() != chunkInsts+1 {
		t.Fatalf("Len = %d, want %d", b.Len(), chunkInsts+1)
	}
	b.EndBB()
	tr := b.Trace()
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
	for i, in := range tr.Insts {
		want := i == chunkInsts-1 || i == chunkInsts
		if in.BBEnd != want {
			t.Errorf("instruction %d: BBEnd = %v, want %v", i, in.BBEnd, want)
		}
	}
}

func TestInvalidEmitNeverReachesTrace(t *testing.T) {
	// The invalid instruction lands first in a fresh chunk, so taking it
	// back out leaves the current chunk empty: EndBB must still find the
	// last valid instruction in the previous one.
	b := New("bad", 1)
	for i := 0; i < chunkInsts; i++ {
		scalarAdd(b)
	}
	if !emitInvalid(b) {
		t.Fatal("invalid instruction did not panic")
	}
	if b.Len() != chunkInsts {
		t.Fatalf("Len = %d after a rejected emit, want %d", b.Len(), chunkInsts)
	}
	b.EndBB()
	scalarAdd(b)
	if !emitInvalid(b) {
		t.Fatal("invalid instruction did not panic")
	}
	tr := b.Trace()
	if tr.Len() != chunkInsts+1 {
		t.Fatalf("trace has %d instructions, want %d", tr.Len(), chunkInsts+1)
	}
	// Validate also checks the sequence numbers stayed dense.
	if err := trace.Validate(tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Insts[chunkInsts-1].BBEnd || tr.Insts[chunkInsts].BBEnd {
		t.Error("EndBB marked the wrong instruction")
	}
}

func TestEmitAfterTraceLeavesTraceUnchanged(t *testing.T) {
	b := New("after", 1)
	allKernels(b)
	tr := b.Trace()
	if len(tr.Insts) != cap(tr.Insts) {
		t.Errorf("trace keeps slack: len %d, cap %d", len(tr.Insts), cap(tr.Insts))
	}
	want := append([]isa.Inst(nil), tr.Insts...)
	b.EndBB()
	allKernels(b)
	b.EndBB()
	if !slices.Equal(tr.Insts, want) {
		t.Fatal("emits after Trace changed the returned trace")
	}
	if b.Len() <= len(want) {
		t.Errorf("builder Len = %d after further emits, want > %d", b.Len(), len(want))
	}
	if err := trace.Validate(b.Trace()); err != nil {
		t.Fatal(err)
	}
}
