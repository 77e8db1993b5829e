package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"decvec/internal/experiments"
	"decvec/internal/sim"
	"decvec/internal/workload"
)

// The default plan is the paper's Figure 3-5 grid: six simulated programs,
// REF and DVA, eleven latencies.
func TestPlanDefaults(t *testing.T) {
	p, err := NewPlan(GridSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(workload.Simulated()) * 2 * len(experiments.DefaultLatencies)
	if p.Points() != want {
		t.Errorf("default plan has %d points, want %d", p.Points(), want)
	}
}

// Cell decode must enumerate exactly the nested-loop order of the
// experiment drivers' grids: programs outermost, then archs, latencies,
// loadQs, storeQs.
func TestPlanCellOrder(t *testing.T) {
	spec := GridSpec{
		Programs:  []string{"BDNA", "OCEAN"},
		Archs:     []string{"REF", "DVA"},
		Latencies: []int64{1, 50, 100},
		LoadQs:    []int{0, 8},
		StoreQs:   []int{0, 4},
	}
	p, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Points() != 2*2*3*2*2 {
		t.Fatalf("points = %d, want 24", p.Points())
	}
	i := 0
	for _, prog := range spec.Programs {
		for _, arch := range spec.Archs {
			for _, lat := range spec.Latencies {
				for _, lq := range spec.LoadQs {
					for _, sq := range spec.StoreQs {
						c := p.Cell(i)
						if c.Index != i {
							t.Fatalf("cell %d: Index = %d", i, c.Index)
						}
						want := experiments.RunParams{Latency: lat, LoadQ: lq, StoreQ: sq}.Config()
						if c.Program.Name != prog || string(c.Arch) != arch || c.Cfg != want {
							t.Fatalf("cell %d = (%s %s %+v), want (%s %s %+v)",
								i, c.Program.Name, c.Arch, c.Cfg, prog, arch, want)
						}
						if c.Latency != lat {
							t.Fatalf("cell %d: Latency = %d, want %d", i, c.Latency, lat)
						}
						i++
					}
				}
			}
		}
	}
}

// BYP is spelled as its own architecture but must canonicalize to
// DVA+bypass, so its cells share cache keys with equivalent DVA cells.
func TestPlanBypassCanonicalization(t *testing.T) {
	p, err := NewPlan(GridSpec{Programs: []string{"BDNA"}, Archs: []string{"byp"}, Latencies: []int64{50}})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Cell(0)
	if c.Arch != experiments.DVA || !c.Cfg.Bypass {
		t.Errorf("BYP cell = arch %s cfg.Bypass %v, want DVA true", c.Arch, c.Cfg.Bypass)
	}
}

// A cell's run is the one dvad resolves from the cell's wire form: the
// RunParams ParamsOf writes, sent as JSON and decoded as strictly as dvad
// decodes a request body, resolve back to exactly the cell's RunSpec at
// every default, edge and limit of the plan's dimensions. Decoding a cell
// allocates nothing.
func TestPlanCellResolvesAsDvad(t *testing.T) {
	p, err := NewPlan(GridSpec{Programs: []string{"BDNA"}, Archs: []string{"REF", "DVA", "BYP"},
		Latencies: []int64{1, 50, sim.MaxMemLatency},
		LoadQs:    []int{0, 1, 4, 256, sim.MaxQueueSlots}, StoreQs: []int{0, 8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Points(); i++ {
		c := p.Cell(i)
		params, err := experiments.ParamsOf(c.RunSpec)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		b, err := json.Marshal(WireCell{Program: c.Program.Name, RunParams: params})
		if err != nil {
			t.Fatal(err)
		}
		var w WireCell
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil {
			t.Fatalf("cell %d: %s: %v", i, b, err)
		}
		spec, err := w.Resolve()
		if err != nil {
			t.Fatalf("cell %d: %s: %v", i, b, err)
		}
		if w.Program != c.Program.Name || spec != c.RunSpec {
			t.Errorf("cell %d: plan %s %+v, dvad %s %+v", i, c.Program.Name, c.RunSpec, w.Program, spec)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.Cell(p.Points() - 1) }); n != 0 {
		t.Errorf("Plan.Cell allocates %.0f times", n)
	}
}

func TestPlanRejectsBadSpecs(t *testing.T) {
	bad := []GridSpec{
		{Programs: []string{"NOSUCH"}},
		{Archs: []string{"VLIW"}},
		{Latencies: []int64{0}},
		{Latencies: []int64{-3}},
		{LoadQs: []int{-1}},
		{StoreQs: []int{-1}},
		{Latencies: []int64{sim.MaxMemLatency + 1}},
		{LoadQs: []int{sim.MaxQueueSlots + 1}},
		{StoreQs: []int{sim.MaxQueueSlots + 1}},
	}
	for i, spec := range bad {
		if _, err := NewPlan(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

// A grid whose point count overflows int must be refused: 2^13 programs ×
// 2^13 archs × 2^13 latencies × 2^12 × 2^12 queues is 2^63 points, which
// wraps to a negative count that slips past any cap.
func TestPlanRejectsOverflowingGrid(t *testing.T) {
	spec := overflowGrid()
	if _, err := NewPlan(spec); err == nil {
		t.Fatal("a grid of 2^63 points was accepted")
	}
	// The largest products that still fit are fine.
	spec.StoreQs = spec.StoreQs[:1]
	p, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Points() != 1<<51 {
		t.Errorf("Points() = %d, want 2^51", p.Points())
	}
}

// overflowGrid is a 2^63-point grid spec: 2^13 × "BDNA", 2^13 × "REF",
// 2^13 latencies, 2^12 load queues and 2^12 store queues.
func overflowGrid() GridSpec {
	var g GridSpec
	for i := 0; i < 1<<13; i++ {
		g.Programs = append(g.Programs, "BDNA")
		g.Archs = append(g.Archs, "REF")
		g.Latencies = append(g.Latencies, 1)
	}
	g.LoadQs = make([]int, 1<<12)
	g.StoreQs = make([]int, 1<<12)
	return g
}
