package ref

import (
	"testing"

	"decvec/internal/isa"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// TestRunnerSteadyStateZeroAlloc pins the arena contract's payoff for the
// reference core: a warmed (Runner, Result) pair replays a recorder-off run
// without a single heap allocation.
func TestRunnerSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	insts := make([]isa.Inst, 0, 32*6)
	for i := 0; i < 32; i++ {
		base := uint64(0x10000 + i*0x1000)
		insts = append(insts,
			isa.Inst{Class: isa.ClassScalarALU, Op: isa.OpAdd, Dst: isa.A(1), Src1: isa.A(1)},
			vld(isa.V(0), base, 16),
			vld(isa.V(1), base+0x400, 16),
			vadd(isa.V(2), isa.V(0), isa.V(1), 16),
			vmul(isa.V(3), isa.V(2), isa.V(0), 16),
			vst(isa.V(3), base+0x800, 16),
		)
	}
	tr := mkTrace(insts...)
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("invalid test trace: %v", err)
	}

	cfg := testCfg(30)
	r := NewRunner()
	var res sim.Result
	if err := r.RunRecordedInto(&res, tr, cfg, nil); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	warm := res.Cycles
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.RunRecordedInto(&res, tr, cfg, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunRecordedInto allocated %.1f times per run, want 0", allocs)
	}
	if res.Cycles != warm || res.Cycles == 0 {
		t.Errorf("steady-state cycles %d, warm-up %d; want equal and nonzero", res.Cycles, warm)
	}
}
