package dva

import (
	"testing"

	"decvec/internal/ideal"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/trace"
	"decvec/internal/tracegen"
)

// The cross-simulator property tests run randomized but well-formed traces
// through both architectures and check the invariants that must hold for
// ANY trace: termination, accounting consistency, conservation of memory
// traffic, the lower bound, and determinism. They are the strongest
// correctness net for the queue/disambiguation machinery, because the
// random traces deliberately overlap addresses.

const (
	crossSeeds    = 60
	crossTraceLen = 400
)

func crossConfig(seed int64) sim.Config {
	cfg := sim.DefaultConfig(1 + (seed*7)%100)
	// Vary the queue geometry too.
	switch seed % 4 {
	case 0: // paper defaults
	case 1:
		cfg.AVDQSize, cfg.VADQSize = 4, 4
	case 2:
		cfg.AVDQSize, cfg.VADQSize = 2, 8
		cfg.IQSize = 4
	case 3:
		cfg.AVDQSize, cfg.VADQSize = 16, 2
		cfg.IQSize = 32
	}
	cfg.Bypass = seed%2 == 0
	return cfg
}

func TestRandomTracesBothSimulators(t *testing.T) {
	for seed := int64(0); seed < crossSeeds; seed++ {
		seed := seed
		tr := tracegen.Random(seed, crossTraceLen).Trace()
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}
		cfg := crossConfig(seed)

		refRes, err := ref.Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: REF: %v", seed, err)
		}
		dvaRes, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d (%s): DVA: %v", seed, cfg.String(), err)
		}

		// Both must execute the same dynamic instruction mix.
		if refRes.Counts != dvaRes.Counts {
			t.Errorf("seed %d: counts differ: %+v vs %+v", seed, refRes.Counts, dvaRes.Counts)
		}
		// State accounting covers exactly the run.
		if refRes.States.Total() != refRes.Cycles {
			t.Errorf("seed %d: REF state total %d != %d", seed, refRes.States.Total(), refRes.Cycles)
		}
		if dvaRes.States.Total() != dvaRes.Cycles {
			t.Errorf("seed %d: DVA state total %d != %d", seed, dvaRes.States.Total(), dvaRes.Cycles)
		}
		// Histograms sample every cycle.
		if dvaRes.AVDQBusy.Total() != dvaRes.Cycles || dvaRes.VADQBusy.Total() != dvaRes.Cycles {
			t.Errorf("seed %d: histogram totals off", seed)
		}
		// Store traffic must be conserved exactly: every store writes
		// memory precisely once (bypass never swallows stores).
		var storeElems, loadElems int64
		for i := range tr.Insts {
			in := &tr.Insts[i]
			if in.Class.IsStore() {
				storeElems += in.Ops()
			}
			if in.Class.IsLoad() {
				loadElems += in.Ops()
			}
		}
		if refRes.Traffic.StoreElems != storeElems {
			t.Errorf("seed %d: REF store traffic %d != %d", seed, refRes.Traffic.StoreElems, storeElems)
		}
		if dvaRes.Traffic.StoreElems != storeElems {
			t.Errorf("seed %d: DVA store traffic %d != %d", seed, dvaRes.Traffic.StoreElems, storeElems)
		}
		// Load traffic: every load either hits the scalar cache, is
		// bypassed, or reaches memory.
		got := dvaRes.Traffic.LoadElems + dvaRes.BypassedElems + dvaRes.ScalarCacheHits
		if got != loadElems {
			t.Errorf("seed %d: DVA load conservation: mem %d + bypass %d + hits %d != %d",
				seed, dvaRes.Traffic.LoadElems, dvaRes.BypassedElems, dvaRes.ScalarCacheHits, loadElems)
		}
		// Without bypass, the DVA may never beat the five-resource bound.
		if !cfg.Bypass {
			bound := ideal.Compute(tr).Cycles
			if dvaRes.Cycles < bound {
				t.Errorf("seed %d: DVA %d beat the lower bound %d", seed, dvaRes.Cycles, bound)
			}
			if refRes.Cycles < bound {
				t.Errorf("seed %d: REF %d beat the lower bound %d", seed, refRes.Cycles, bound)
			}
		}
		// Determinism.
		again, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: rerun: %v", seed, err)
		}
		if again.Cycles != dvaRes.Cycles || again.Traffic != dvaRes.Traffic || again.States != dvaRes.States {
			t.Errorf("seed %d: DVA not deterministic", seed)
		}
	}
}

func TestRandomTracesBypassNeverAddsTraffic(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		tr := tracegen.Random(seed, crossTraceLen).Trace()
		cfg := sim.DefaultConfig(1 + (seed*13)%100)
		plain, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg.Bypass = true
		byp, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if byp.Traffic.Total() > plain.Traffic.Total() {
			t.Errorf("seed %d: bypass increased traffic %d -> %d",
				seed, plain.Traffic.Total(), byp.Traffic.Total())
		}
		if byp.Traffic.StoreElems != plain.Traffic.StoreElems {
			t.Errorf("seed %d: bypass changed store traffic", seed)
		}
	}
}

func TestRandomTracesTinyQueuesStillTerminate(t *testing.T) {
	// The pathological minimum geometry must not deadlock.
	for seed := int64(200); seed < 215; seed++ {
		tr := tracegen.Random(seed, 200).Trace()
		cfg := sim.DefaultConfig(37)
		cfg.IQSize = 2
		cfg.AVDQSize = 1
		cfg.VADQSize = 1
		cfg.ScalarQSize = 2
		if _, err := Run(tr, cfg); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
