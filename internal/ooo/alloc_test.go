package ooo

import (
	"testing"

	"decvec/internal/sim"
	"decvec/internal/tracegen"
)

// TestRunnerSteadyStateZeroAlloc pins the arena contract's payoff for the
// OOO core: a warmed (Runner, Result) pair replays a run without a single
// heap allocation, in both fast and SlowTick modes. The wide window keeps
// the issue selection busy over a random mix of every instruction class.
func TestRunnerSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := tracegen.Random(7, 2000).Trace()
	for _, mode := range []struct {
		name     string
		slowTick bool
	}{
		{"fast", false},
		{"slowtick", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig(30)
			cfg.Window = 64
			cfg.SlowTick = mode.slowTick
			r := NewRunner()
			var res sim.Result
			// Warm-up run builds the machine and sizes res's storage.
			if err := r.RunInto(&res, tr, cfg); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			warm := res.Cycles
			allocs := testing.AllocsPerRun(10, func() {
				if err := r.RunInto(&res, tr, cfg); err != nil {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state RunInto allocated %.1f times per run, want 0", allocs)
			}
			if res.Cycles != warm || res.Cycles == 0 {
				t.Errorf("steady-state cycles %d, warm-up %d; want equal and nonzero", res.Cycles, warm)
			}
		})
	}
}
