package experiments

import (
	"context"
	"strings"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// ParamsOf writes the canonical parameters: 0 for every default, a
// bypassing DVA as BYP, a bypassing REF as REF with Bypass, SlowTick
// ignored. It refuses what the parameters cannot carry, naming the field.
func TestParamsOf(t *testing.T) {
	byp := sim.BypassConfig(2, 4, 16)
	slow := sim.DefaultConfig(30)
	slow.SlowTick = true
	refByp := sim.DefaultConfig(30)
	refByp.Bypass = true
	for _, c := range []struct {
		spec RunSpec
		want RunParams
	}{
		{RunSpec{Arch: DVA, Cfg: sim.DefaultConfig(50)}, RunParams{Arch: "DVA", Latency: 50}},
		{RunSpec{Arch: DVA, Cfg: byp}, RunParams{Arch: "BYP", Latency: 2, LoadQ: 4}},
		{RunSpec{Arch: REF, Cfg: refByp}, RunParams{Arch: "REF", Latency: 30, Bypass: true}},
		{RunSpec{Arch: REF, Cfg: slow}, RunParams{Arch: "REF", Latency: 30}},
	} {
		got, err := ParamsOf(c.spec)
		if err != nil || got != c.want {
			t.Errorf("ParamsOf(%s) = %+v, %v; want %+v", c.spec.Cfg.Label(string(c.spec.Arch)), got, err, c.want)
		}
	}

	dva := func(edit func(*sim.Config)) RunSpec {
		cfg := sim.DefaultConfig(50)
		edit(&cfg)
		return RunSpec{Arch: DVA, Cfg: cfg}
	}
	for field, spec := range map[string]RunSpec{
		`unknown architecture "OOO"`:                            {Arch: OOO, Cfg: sim.DefaultConfig(50), Window: 16, PhysRegs: 64},
		"MemPorts:2 where the parameters resolve to MemPorts:1": dva(func(c *sim.Config) { c.MemPorts = 2 }),
		"QMovUnits:1 where":                                     dva(func(c *sim.Config) { c.QMovUnits = 1 }),
		"VSAQSize:4 where":                                      dva(func(c *sim.Config) { c.VSAQSize = 4 }),
		"AVDQSize:0 where":                                      dva(func(c *sim.Config) { c.AVDQSize = 0 }),
		"Window:8 where the parameters resolve to Window:0":     {Arch: DVA, Cfg: sim.DefaultConfig(50), Window: 8},
		"PhysRegs:4 where the parameters resolve to PhysRegs:0": {Arch: REF, Cfg: sim.DefaultConfig(50), PhysRegs: 4},
		"memory latency 0":                                      dva(func(c *sim.Config) { c.MemLatency = 0 }),
	} {
		if p, err := ParamsOf(spec); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("ParamsOf(%+v) = %+v, %v; want an error naming %q", spec, p, err, field)
		}
	}
}

// A core's error is labelled by the machine that ran, as the reports name
// it: a BYP run reads as BYP with its queue sizes, not as the DVA core.
func TestSuiteErrorNamesTheMachine(t *testing.T) {
	s := NewSuite(0.05)
	p, err := workload.Get("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.BypassConfig(2, 4, 16)
	cfg.ChainDelay = 0
	_, err = s.RunCtx(context.Background(), p, RunSpec{Arch: DVA, Cfg: cfg})
	if want := "experiments: BYP 4/16 L=2 on BDNA: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error = %v, want it to begin %q", err, want)
	}
}

// paramsFrom maps fuzz bytes to parameters: the arch from REF, DVA, BYP,
// OOO and junk in mixed case, each knob from 0, ±1, the defaults and both
// sides of each limit, and the Bypass and SlowTick bits. Missing bytes
// read as 0.
func paramsFrom(data []byte) (RunParams, bool) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	archs := []string{"REF", "DVA", "BYP", "OOO", "junk", "ref", "Dva", "bYp", "ooo", ""}
	knobs := []int64{0, 1, -1, 2, 20, sim.DefaultIQSize, sim.DefaultVADQSize, sim.DefaultAVDQSize,
		sim.MaxMemLatency - 1, sim.MaxMemLatency, sim.MaxMemLatency + 1,
		sim.MaxQueueSlots - 1, sim.MaxQueueSlots, sim.MaxQueueSlots + 1}
	knob := func(i int) int64 { return knobs[at(i)%len(knobs)] }
	return RunParams{
		Arch:    archs[at(0)%len(archs)],
		Latency: knob(1),
		LoadQ:   int(knob(2)),
		StoreQ:  int(knob(3)),
		IQ:      int(knob(4)),
		Jitter:  knob(5),
		Bypass:  at(6)&1 != 0,
	}, at(6)&2 != 0
}

// FuzzRunParams holds ParamsOf to being Resolve's inverse: whenever
// parameters resolve, ParamsOf of the run succeeds, with SlowTick set or
// not, and resolves back to the same run, and ParamsOf of that is the same
// parameters again. testdata/fuzz/FuzzRunParams holds a run of each arch
// spelling, every knob at a limit and the refused shapes.
func FuzzRunParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, slow := paramsFrom(data)
		spec, err := p.Resolve()
		if err != nil {
			return
		}
		run := spec
		run.Cfg.SlowTick = slow
		q, err := ParamsOf(run)
		if err != nil {
			t.Fatalf("%+v resolves, but ParamsOf refuses its run: %v", p, err)
		}
		back, err := q.Resolve()
		if err != nil || back != spec {
			t.Fatalf("%+v: ParamsOf wrote %+v, which resolves to %+v, %v; want %+v", p, q, back, err, spec)
		}
		if again, err := ParamsOf(back); err != nil || again != q {
			t.Fatalf("%+v: ParamsOf is not a fixed point: %+v, then %+v, %v", p, q, again, err)
		}
	})
}
