package workload

import (
	"math"
	"sync"
	"testing"
	"time"

	"decvec/internal/trace"
	"decvec/internal/tracegen"
)

func TestThirteenPrograms(t *testing.T) {
	if len(All) != 13 {
		t.Fatalf("have %d programs, the Perfect Club has 13", len(All))
	}
	seen := map[string]bool{}
	for _, p := range All {
		if seen[p.Name] {
			t.Errorf("duplicate program %q", p.Name)
		}
		seen[p.Name] = true
		if p.Description == "" {
			t.Errorf("%s lacks a description", p.Name)
		}
	}
}

func TestSimulatedAreTheSix(t *testing.T) {
	want := map[string]bool{
		"ARC2D": true, "FLO52": true, "BDNA": true,
		"SPEC77": true, "TRFD": true, "DYFESM": true,
	}
	sims := Simulated()
	if len(sims) != 6 {
		t.Fatalf("%d simulated programs", len(sims))
	}
	for _, p := range sims {
		if !want[p.Name] {
			t.Errorf("unexpected simulated program %s", p.Name)
		}
	}
}

func TestGet(t *testing.T) {
	p, err := Get("TRFD")
	if err != nil || p.Name != "TRFD" {
		t.Fatalf("Get: %v %v", p, err)
	}
	if _, err := Get("NOPE"); err == nil {
		t.Error("expected error for unknown program")
	}
}

func TestAllTracesValidate(t *testing.T) {
	for _, p := range All {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			if err := trace.Validate(p.Trace(0.5)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTraceDeterminism(t *testing.T) {
	p, _ := Get("DYFESM")
	a, b := p.Trace(1), p.Trace(1)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestCachedTraceIsStable(t *testing.T) {
	p, _ := Get("ARC2D")
	if p.CachedTrace(1) != p.CachedTrace(1) {
		t.Error("cache returns different objects")
	}
	if p.CachedTrace(1) == p.CachedTrace(2) {
		t.Error("different scales must not share a cache entry")
	}
}

func TestScaleGrowsTrace(t *testing.T) {
	p, _ := Get("FLO52")
	small := p.Trace(0.5).Len()
	big := p.Trace(2).Len()
	if big <= small {
		t.Errorf("scale 2 (%d) not larger than scale 0.5 (%d)", big, small)
	}
}

// TestCalibration locks the six simulated models to the paper's Table 1
// ratios: vectorization within 3 percentage points, average vector length
// within 12%, and the spill fraction for the four programs the paper's
// reference [5] quantifies within 8 percentage points.
func TestCalibration(t *testing.T) {
	spillKnown := map[string]float64{
		"BDNA":   0.695,
		"ARC2D":  0.122,
		"FLO52":  0.119,
		"SPEC77": 0.03,
	}
	for _, p := range Simulated() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			st := trace.Collect(p.CachedTrace(1))
			vect := 100 * st.Vectorization()
			if d := math.Abs(vect - p.Paper.Vect); d > 3 {
				t.Errorf("vectorization %.1f%% vs paper %.1f%% (|d|=%.1f)", vect, p.Paper.Vect, d)
			}
			avgVL := st.AvgVL()
			if rel := math.Abs(avgVL-p.Paper.AvgVL) / p.Paper.AvgVL; rel > 0.12 {
				t.Errorf("avg VL %.1f vs paper %.0f (%.0f%% off)", avgVL, p.Paper.AvgVL, 100*rel)
			}
			if want, ok := spillKnown[p.Name]; ok {
				got := st.SpillFraction()
				if d := math.Abs(got - want); d > 0.08 {
					t.Errorf("spill fraction %.3f vs paper %.3f", got, want)
				}
			}
			// Tables need a meaningful trace size at scale 1.
			if st.ScalarInsts+st.VectorInsts < 5000 {
				t.Errorf("trace too small: %d instructions", st.ScalarInsts+st.VectorInsts)
			}
		})
	}
}

// TestNonSimulatedBelowThreshold checks the paper's selection criterion:
// the seven unsimulated programs fall below 70% vectorization.
func TestNonSimulatedBelowThreshold(t *testing.T) {
	for _, p := range All {
		if p.Simulated {
			continue
		}
		st := trace.Collect(p.CachedTrace(0.5))
		if v := st.Vectorization(); v >= 0.70 {
			t.Errorf("%s: vectorization %.2f should be < 0.70", p.Name, v)
		}
	}
}

// TestSimulatedAboveThreshold checks the inverse for the chosen six.
func TestSimulatedAboveThreshold(t *testing.T) {
	for _, p := range Simulated() {
		st := trace.Collect(p.CachedTrace(1))
		if v := st.Vectorization(); v < 0.70 {
			t.Errorf("%s: vectorization %.2f should be >= 0.70", p.Name, v)
		}
	}
}

func TestPaperRowsArithmetic(t *testing.T) {
	// The Table 1 columns must be mutually consistent: %Vect equals
	// VOps/(SInsts+VOps) and avg VL equals VOps/VInsts, within rounding.
	for _, p := range All {
		r := p.Paper
		wantVect := 100 * r.VOps / (r.SInsts + r.VOps)
		if math.Abs(wantVect-r.Vect) > 1.5 {
			t.Errorf("%s: paper vect %.1f inconsistent with counts (%.1f)", p.Name, r.Vect, wantVect)
		}
		wantVL := r.VOps / r.VInsts
		if math.Abs(wantVL-r.AvgVL)/r.AvgVL > 0.12 {
			t.Errorf("%s: paper avg VL %.0f inconsistent with counts (%.1f)", p.Name, r.AvgVL, wantVL)
		}
	}
}

func TestSeedForIsStable(t *testing.T) {
	if seedFor("BDNA") != seedFor("BDNA") {
		t.Error("seed not stable")
	}
	if seedFor("BDNA") == seedFor("TRFD") {
		t.Error("different names share a seed")
	}
}

// TestCachedTraceGeneratesConcurrently pins the materialization fix of the
// warm() cold-start path: trace generation for different programs must not
// serialize on the global cache lock. The two fixture builds rendezvous —
// each waits until the other is also mid-generation — so this test
// deadlocks (and fails on the watchdog) if generation ever moves back
// under cacheMu.
func TestCachedTraceGeneratesConcurrently(t *testing.T) {
	arrive := make(chan string, 2)
	release := make(chan struct{})
	mk := func(name string) *Program {
		return &Program{
			Name:        name,
			Description: "concurrency fixture",
			build: func(b *tracegen.Builder, u int) {
				arrive <- name
				<-release
			},
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, p := range []*Program{mk("conc-fixture-a"), mk("conc-fixture-b")} {
			wg.Add(1)
			go func(p *Program) {
				defer wg.Done()
				p.CachedTrace(1)
			}(p)
		}
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-arrive:
		case <-time.After(10 * time.Second):
			t.Fatal("only one trace generation in flight: CachedTrace serializes generation under the global cache lock")
		}
	}
	close(release)
	<-done
}

// The trace memo sits under every suite lookup, so a warmed lookup must not
// allocate: a formatted string key cost three allocations per call.
func TestCachedLookupsZeroAlloc(t *testing.T) {
	p := Simulated()[0]
	const scale = 0.05
	if _, err := p.CachedTraceHash(scale); err != nil {
		t.Fatal(err)
	}
	p.CachedStats(scale)
	for name, lookup := range map[string]func(){
		"CachedTrace":     func() { p.CachedTrace(scale) },
		"CachedStats":     func() { p.CachedStats(scale) },
		"CachedTraceHash": func() { _, _ = p.CachedTraceHash(scale) },
	} {
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Errorf("warmed %s allocated %.1f times per call, want 0", name, allocs)
		}
	}
}

// BenchmarkProgramTraces synthesizes all thirteen program traces at the
// default scale, the trace set-up every process pays before it simulates.
func BenchmarkProgramTraces(b *testing.B) {
	b.ReportAllocs()
	var insts int
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, p := range All {
			insts += p.Trace(DefaultScale).Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
}
