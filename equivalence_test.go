package decvec

import (
	"reflect"
	"testing"

	"decvec/internal/dva"
	"decvec/internal/ooo"
	"decvec/internal/ref"
	"decvec/internal/report"
	"decvec/internal/sim"
	"decvec/internal/trace"
	"decvec/internal/tracegen"
	"decvec/internal/workload"
)

// These tests pin the central claim of the idle-skip (event-horizon) fast
// path: it is a pure wall-clock optimization. For every simulator core and
// every point of the (program x latency x queue-size) grid, a fast run and a
// SlowTick (per-cycle) run must produce bit-identical results — cycles,
// stall counters, state breakdowns, occupancy histograms, queue statistics,
// the rendered metrics JSON, and (for the recorded cores) the exact same
// event stream.

// equivalenceScale keeps the grid affordable under -race while still running
// thousands of cycles per point.
const equivalenceScale = 0.25

// normalize clears the one field that legitimately differs between the two
// modes (the mode flag itself) so the rest of the result can be compared
// with reflect.DeepEqual.
func normalize(r *sim.Result) *sim.Result {
	c := *r
	c.Config.SlowTick = false
	return &c
}

// assertIdentical fails the test unless fast and slow are bit-identical
// (modulo the SlowTick flag) and render identical metrics JSON.
func assertIdentical(t *testing.T, fast, slow *sim.Result) {
	t.Helper()
	nf, ns := normalize(fast), normalize(slow)
	if !reflect.DeepEqual(nf, ns) {
		t.Errorf("fast and slow results differ:\nfast: %+v\nslow: %+v", nf, ns)
		if fast.Cycles != slow.Cycles {
			t.Errorf("cycles: fast %d, slow %d", fast.Cycles, slow.Cycles)
		}
		if fast.States != slow.States {
			t.Errorf("states: fast %v, slow %v", &fast.States, &slow.States)
		}
		if fast.Stalls != slow.Stalls {
			t.Errorf("stalls: fast %v, slow %v", fast.Stalls.Nonzero(), slow.Stalls.Nonzero())
		}
	}
	fj, err := report.MetricsJSON(nf)
	if err != nil {
		t.Fatalf("fast MetricsJSON: %v", err)
	}
	sj, err := report.MetricsJSON(ns)
	if err != nil {
		t.Fatalf("slow MetricsJSON: %v", err)
	}
	if string(fj) != string(sj) {
		t.Errorf("MetricsJSON differs:\nfast: %s\nslow: %s", fj, sj)
	}
}

// assertSameEvents fails the test unless both recorders saw the same stream.
// The fast path records a sleeping unit's stalls as one span per reason when
// the unit wakes (or the run ends), extending the event the unit emitted
// before it slept, which must reproduce the per-cycle coalescing exactly.
func assertSameEvents(t *testing.T, fast, slow *sim.Recorder) {
	t.Helper()
	fe, se := fast.Events(), slow.Events()
	if len(fe) != len(se) {
		t.Errorf("event stream length differs: fast %d, slow %d", len(fe), len(se))
	}
	n := len(fe)
	if len(se) < n {
		n = len(se)
	}
	for i := 0; i < n; i++ {
		if fe[i] != se[i] {
			t.Errorf("event %d differs:\nfast: %+v\nslow: %+v", i, fe[i], se[i])
			return
		}
	}
}

// dvaGrid is the DVA/BYP configuration grid: the paper's default machine,
// squeezed queues (which shift the stall mix toward back-pressure), the
// bypass machine, and a second QMOV/port shape.
func dvaGrid(latency int64) []sim.Config {
	def := sim.DefaultConfig(latency)

	small := sim.DefaultConfig(latency)
	small.IQSize = 2
	small.ScalarQSize = 4
	small.AVDQSize = 4
	small.VADQSize = 2

	byp := sim.BypassConfig(latency, 16, 8)

	wide := sim.DefaultConfig(latency)
	wide.MemPorts = 2
	wide.QMovUnits = 1
	wide.LatencyJitter = 7

	return []sim.Config{def, small, byp, wide}
}

var equivalenceLatencies = []int64{1, 30, 100}

// recordFresh runs src under cfg on r, a new Runner, recording into rec: the
// fresh machine the SlowTick and pooled runs are compared against.
func recordFresh[R interface {
	RunRecordedInto(*sim.Result, *trace.Slice, sim.Config, *sim.Recorder) error
}](r R, src *trace.Slice, cfg sim.Config, rec *sim.Recorder) (*sim.Result, error) {
	res := new(sim.Result)
	if err := r.RunRecordedInto(res, src, cfg, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// TestDVAIdleSkipEquivalence sweeps the DVA and BYP cores over the full
// (program x latency x queue-size) grid, comparing the fast and SlowTick
// modes including their recorded event streams.
func TestDVAIdleSkipEquivalence(t *testing.T) {
	for _, p := range workload.Simulated() {
		for _, lat := range equivalenceLatencies {
			for ci, cfg := range dvaGrid(lat) {
				p, cfg := p, cfg
				t.Run(testName(p.Name, lat, ci), func(t *testing.T) {
					t.Parallel()
					src := p.CachedTrace(equivalenceScale)

					fastRec, slowRec := sim.NewRecorder(), sim.NewRecorder()
					fastCfg := cfg
					fastCfg.SlowTick = false
					slowCfg := cfg
					slowCfg.SlowTick = true

					fast, err := recordFresh(dva.NewRunner(), src, fastCfg, fastRec)
					if err != nil {
						t.Fatalf("fast run: %v", err)
					}
					slow, err := recordFresh(dva.NewRunner(), src, slowCfg, slowRec)
					if err != nil {
						t.Fatalf("slow run: %v", err)
					}
					assertIdentical(t, fast, slow)
					assertSameEvents(t, fastRec, slowRec)
				})
			}
		}
	}
}

// TestREFIdleSkipEquivalence checks the reference core's windowed state
// accounting against the per-cycle SlowTick mode, event streams included.
func TestREFIdleSkipEquivalence(t *testing.T) {
	for _, p := range workload.Simulated() {
		for _, lat := range equivalenceLatencies {
			p, lat := p, lat
			t.Run(testName(p.Name, lat, 0), func(t *testing.T) {
				t.Parallel()
				src := p.CachedTrace(equivalenceScale)

				fastRec, slowRec := sim.NewRecorder(), sim.NewRecorder()
				fastCfg := sim.DefaultConfig(lat)
				slowCfg := fastCfg
				slowCfg.SlowTick = true

				fast, err := recordFresh(ref.NewRunner(), src, fastCfg, fastRec)
				if err != nil {
					t.Fatalf("fast run: %v", err)
				}
				slow, err := recordFresh(ref.NewRunner(), src, slowCfg, slowRec)
				if err != nil {
					t.Fatalf("slow run: %v", err)
				}
				assertIdentical(t, fast, slow)
				assertSameEvents(t, fastRec, slowRec)
			})
		}
	}
}

// TestOOOIdleSkipEquivalence checks the out-of-order core over window and
// physical-register shapes in addition to the latency sweep.
func TestOOOIdleSkipEquivalence(t *testing.T) {
	shapes := []struct{ window, phys int }{
		{1, 8}, {4, 16}, {16, 32},
	}
	for _, p := range workload.Simulated() {
		for _, lat := range equivalenceLatencies {
			for si, sh := range shapes {
				p, lat, sh := p, lat, sh
				t.Run(testName(p.Name, lat, si), func(t *testing.T) {
					t.Parallel()
					src := p.CachedTrace(equivalenceScale)

					fastCfg := ooo.DefaultConfig(lat)
					fastCfg.Window = sh.window
					fastCfg.PhysRegs = sh.phys
					slowCfg := fastCfg
					slowCfg.SlowTick = true

					fast, err := ooo.NewRunner().Run(src, fastCfg)
					if err != nil {
						t.Fatalf("fast run: %v", err)
					}
					slow, err := ooo.NewRunner().Run(src, slowCfg)
					if err != nil {
						t.Fatalf("slow run: %v", err)
					}
					assertIdentical(t, fast, slow)
				})
			}
		}
	}
}

// TestHighJitterEquivalence runs both cycle-level cores with per-access
// jitter far above a latency-only deadlock window: a legitimate wait then
// outlasts that window, so both modes must count the jitter in theirs and
// finish, identically.
func TestHighJitterEquivalence(t *testing.T) {
	src := tracegen.Random(7, 200).Trace()
	cfg := sim.DefaultConfig(1)
	cfg.LatencyJitter = 1 << 16
	slowCfg := cfg
	slowCfg.SlowTick = true

	fastRec, slowRec := sim.NewRecorder(), sim.NewRecorder()
	fast, err := recordFresh(dva.NewRunner(), src, cfg, fastRec)
	if err != nil {
		t.Fatalf("dva fast run: %v", err)
	}
	slow, err := recordFresh(dva.NewRunner(), src, slowCfg, slowRec)
	if err != nil {
		t.Fatalf("dva slow run: %v", err)
	}
	assertIdentical(t, fast, slow)
	assertSameEvents(t, fastRec, slowRec)

	oooCfg := ooo.Config{Config: cfg, Window: 16, PhysRegs: 32}
	oooSlowCfg := oooCfg
	oooSlowCfg.SlowTick = true
	fast, err = ooo.NewRunner().Run(src, oooCfg)
	if err != nil {
		t.Fatalf("ooo fast run: %v", err)
	}
	slow, err = ooo.NewRunner().Run(src, oooSlowCfg)
	if err != nil {
		t.Fatalf("ooo slow run: %v", err)
	}
	assertIdentical(t, fast, slow)
}

// TestBoundedRecorderEquivalence pins the one documented divergence between
// the modes: with MaxEvents set, the stored stream stays identical while the
// Dropped counter may differ (a skipped span drops as one event, not n).
func TestBoundedRecorderEquivalence(t *testing.T) {
	p := workload.Simulated()[0]
	src := p.CachedTrace(equivalenceScale)
	cfg := sim.DefaultConfig(100)

	fastRec := &sim.Recorder{MaxEvents: 64}
	slowRec := &sim.Recorder{MaxEvents: 64}
	slowCfg := cfg
	slowCfg.SlowTick = true

	fast, err := recordFresh(dva.NewRunner(), src, cfg, fastRec)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	slow, err := recordFresh(dva.NewRunner(), src, slowCfg, slowRec)
	if err != nil {
		t.Fatalf("slow run: %v", err)
	}
	assertIdentical(t, fast, slow)
	assertSameEvents(t, fastRec, slowRec)
	if fastRec.Dropped == 0 || slowRec.Dropped == 0 {
		t.Errorf("expected both recorders to drop events at MaxEvents=64: fast %d, slow %d",
			fastRec.Dropped, slowRec.Dropped)
	}
}

// testName builds a stable subtest name for one grid point.
func testName(prog string, lat int64, variant int) string {
	return prog + "/L" + itoa(lat) + "/c" + itoa(int64(variant))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
