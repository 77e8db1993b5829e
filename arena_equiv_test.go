package decvec

import (
	"reflect"
	"testing"

	"decvec/internal/dva"
	"decvec/internal/ooo"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/workload"
)

// These tests pin the arena Reset contract (internal/sim/arena.go): a pooled
// Runner reused across runs must be observationally bit-identical to a fresh
// machine. Each core walks the same (program x latency x queue-size) grid as
// the idle-skip suite with a single shared Runner, so every step resets the
// machine away from a different configuration (different queue capacities,
// port counts, histogram sizes) — the hostile case for stale-state leaks.
// Every grid point runs twice on the pooled machine, so same-geometry reuse
// (where reset takes every "reuse in place" branch) is pinned too.

// assertPooledIdentical fails the test unless a pooled run matches the fresh
// run bit-for-bit, including derived metrics JSON.
func assertPooledIdentical(t *testing.T, label string, fresh, pooled *sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("%s: pooled result differs from fresh:\nfresh:  %+v\npooled: %+v", label, fresh, pooled)
	}
}

// TestDVAArenaReuseEquivalence runs the DVA/BYP grid on one shared Runner,
// comparing every reused run (results and event streams) against a fresh
// machine.
func TestDVAArenaReuseEquivalence(t *testing.T) {
	runner := dva.NewRunner()
	for _, p := range workload.Simulated() {
		for _, lat := range equivalenceLatencies {
			for ci, cfg := range dvaGrid(lat) {
				src := p.CachedTrace(equivalenceScale)
				name := testName(p.Name, lat, ci)

				freshRec := sim.NewRecorder()
				fresh, err := dva.RunRecorded(src, cfg, freshRec)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", name, err)
				}

				var first, second sim.Result
				firstRec, secondRec := sim.NewRecorder(), sim.NewRecorder()
				if err := runner.RunRecordedInto(&first, src, cfg, firstRec); err != nil {
					t.Fatalf("%s: pooled run 1: %v", name, err)
				}
				if err := runner.RunRecordedInto(&second, src, cfg, secondRec); err != nil {
					t.Fatalf("%s: pooled run 2: %v", name, err)
				}

				assertPooledIdentical(t, name+"/run1", fresh, &first)
				assertPooledIdentical(t, name+"/run2", fresh, &second)
				assertSameEvents(t, freshRec, firstRec)
				assertSameEvents(t, freshRec, secondRec)
			}
		}
	}
}

// TestREFArenaReuseEquivalence is the REF-core arena-reuse sweep.
func TestREFArenaReuseEquivalence(t *testing.T) {
	runner := ref.NewRunner()
	for _, p := range workload.Simulated() {
		for _, lat := range equivalenceLatencies {
			src := p.CachedTrace(equivalenceScale)
			name := testName(p.Name, lat, 0)
			cfg := sim.DefaultConfig(lat)

			freshRec := sim.NewRecorder()
			fresh, err := ref.RunRecorded(src, cfg, freshRec)
			if err != nil {
				t.Fatalf("%s: fresh run: %v", name, err)
			}

			var first, second sim.Result
			firstRec, secondRec := sim.NewRecorder(), sim.NewRecorder()
			if err := runner.RunRecordedInto(&first, src, cfg, firstRec); err != nil {
				t.Fatalf("%s: pooled run 1: %v", name, err)
			}
			if err := runner.RunRecordedInto(&second, src, cfg, secondRec); err != nil {
				t.Fatalf("%s: pooled run 2: %v", name, err)
			}

			assertPooledIdentical(t, name+"/run1", fresh, &first)
			assertPooledIdentical(t, name+"/run2", fresh, &second)
			assertSameEvents(t, freshRec, firstRec)
			assertSameEvents(t, freshRec, secondRec)
		}
	}
}

// TestOOOArenaReuseEquivalence is the OOO-core arena-reuse sweep (results
// only; the OOO core has no event recorder). Window and physical-register
// shapes vary between grid steps, so the issue window ring and the value
// arena are both resized and reused along the walk.
func TestOOOArenaReuseEquivalence(t *testing.T) {
	shapes := []struct{ window, phys int }{
		{1, 8}, {4, 16}, {16, 32},
	}
	runner := ooo.NewRunner()
	for _, p := range workload.Simulated() {
		for _, lat := range equivalenceLatencies {
			for si, sh := range shapes {
				src := p.CachedTrace(equivalenceScale)
				name := testName(p.Name, lat, si)
				cfg := ooo.DefaultConfig(lat)
				cfg.Window = sh.window
				cfg.PhysRegs = sh.phys

				fresh, err := ooo.Run(src, cfg)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", name, err)
				}

				var first, second sim.Result
				if err := runner.RunInto(&first, src, cfg); err != nil {
					t.Fatalf("%s: pooled run 1: %v", name, err)
				}
				if err := runner.RunInto(&second, src, cfg); err != nil {
					t.Fatalf("%s: pooled run 2: %v", name, err)
				}

				assertPooledIdentical(t, name+"/run1", fresh, &first)
				assertPooledIdentical(t, name+"/run2", fresh, &second)
			}
		}
	}
}

// TestDVAWakeWheelStaleStateReuse pins the wake scheduler's slice of the
// Reset contract with same-geometry reuse, where reset takes every
// "reuse in place" branch and nothing is rebuilt. A finished run parks the
// wheel with every unit asleep far in the future, dirty bits folded, stall
// caches and last-step cycles at end-of-trace values; the next run — a
// different program under the identical config — must not inherit any of it
// (a stale wake time would let a unit oversleep, a stale dirty bit would
// step it spuriously, stale stall debt would corrupt the counters).
// Alternating recorder-off and recorder-on runs on the same pooled machine
// checks that the debt bookkeeping (lastStep) a run leaves behind resets
// away byte-exactly whether or not the next run also settles its debt into
// an event stream.
func TestDVAWakeWheelStaleStateReuse(t *testing.T) {
	progs := workload.Simulated()
	if len(progs) < 2 {
		t.Fatal("need at least two simulated programs")
	}
	// First and last differ most in dispatch/memory character, maximizing
	// how wrong a carried-over wake wheel would be.
	pa, pb := progs[0], progs[len(progs)-1]
	cfg := sim.DefaultConfig(30)
	runner := dva.NewRunner()

	for round, p := range []*workload.Program{pa, pb, pa, pb} {
		src := p.CachedTrace(equivalenceScale)
		name := testName(p.Name, 30, round)
		if round%2 == 0 {
			// Recorder-off: stall debt settles into the counters only.
			fresh, err := dva.Run(src, cfg)
			if err != nil {
				t.Fatalf("%s: fresh run: %v", name, err)
			}
			var pooled sim.Result
			if err := runner.RunInto(&pooled, src, cfg); err != nil {
				t.Fatalf("%s: pooled run: %v", name, err)
			}
			assertPooledIdentical(t, name+"/rec-off", fresh, &pooled)
		} else {
			// Recorder-on: stall debt also settles as spans into the
			// event stream, compared too.
			freshRec := sim.NewRecorder()
			fresh, err := dva.RunRecorded(src, cfg, freshRec)
			if err != nil {
				t.Fatalf("%s: fresh run: %v", name, err)
			}
			var pooled sim.Result
			pooledRec := sim.NewRecorder()
			if err := runner.RunRecordedInto(&pooled, src, cfg, pooledRec); err != nil {
				t.Fatalf("%s: pooled run: %v", name, err)
			}
			assertPooledIdentical(t, name+"/rec-on", fresh, &pooled)
			assertSameEvents(t, freshRec, pooledRec)
		}
	}
}

// TestOOOWakeWheelStaleStateReuse is the OOO-core counterpart: same-geometry
// cross-trace reuse of the three-unit wheel (fetch/issue/retire wake times
// and action-graph dirty bits). The OOO core has no recorder, so results
// alone carry the comparison.
func TestOOOWakeWheelStaleStateReuse(t *testing.T) {
	progs := workload.Simulated()
	if len(progs) < 2 {
		t.Fatal("need at least two simulated programs")
	}
	pa, pb := progs[0], progs[len(progs)-1]
	cfg := ooo.DefaultConfig(30)
	runner := ooo.NewRunner()

	for round, p := range []*workload.Program{pa, pb, pa, pb} {
		src := p.CachedTrace(equivalenceScale)
		name := testName(p.Name, 30, round)
		fresh, err := ooo.Run(src, cfg)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}
		var pooled sim.Result
		if err := runner.RunInto(&pooled, src, cfg); err != nil {
			t.Fatalf("%s: pooled run: %v", name, err)
		}
		assertPooledIdentical(t, name, fresh, &pooled)
	}
}

// TestArenaReuseSlowTick crosses the two contracts: a pooled machine in
// SlowTick mode must still match a fresh fast-path machine after normalize.
func TestArenaReuseSlowTick(t *testing.T) {
	p := workload.Simulated()[0]
	src := p.CachedTrace(equivalenceScale)
	cfg := sim.DefaultConfig(30)

	fresh, err := dva.Run(src, cfg)
	if err != nil {
		t.Fatalf("fresh fast run: %v", err)
	}

	runner := dva.NewRunner()
	slowCfg := cfg
	slowCfg.SlowTick = true
	var warm, pooled sim.Result
	if err := runner.RunInto(&warm, src, slowCfg); err != nil {
		t.Fatalf("pooled warm-up run: %v", err)
	}
	if err := runner.RunInto(&pooled, src, slowCfg); err != nil {
		t.Fatalf("pooled slow run: %v", err)
	}
	assertIdentical(t, fresh, &pooled)
}
