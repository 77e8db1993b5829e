package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// PortsRow compares, for one (program, latency), the single-port DVA, the
// single-port DVA with the §7 bypass, and a DVA given a real second memory
// port (no bypass).
type PortsRow struct {
	Name     string
	Latency  int64
	Dva1     int64 // DVA, one port
	Byp1     int64 // BYP 256/16, one port
	Dva2     int64 // DVA, two ports
	BypGain  float64
	PortGain float64
}

// PortsResult is the extension quantifying §7's observation that the
// bypass "gives the illusion of having two memory ports": how much of a
// real second port's benefit does the bypass capture, at the cost of a
// queue comparator instead of a second bus?
type PortsResult struct {
	Latencies []int64
	Rows      []PortsRow
}

// ExtensionPorts runs the comparison.
func ExtensionPorts(ctx context.Context, s *Suite, lats []int64) (*PortsResult, error) {
	if len(lats) == 0 {
		lats = []int64{1, 50}
	}
	progs := workload.Simulated()
	oneP := func(l int64) sim.Config { return sim.DefaultConfig(l) }
	bypP := func(l int64) sim.Config { return sim.BypassConfig(l, 256, 16) }
	twoP := func(l int64) sim.Config {
		cfg := sim.DefaultConfig(l)
		cfg.MemPorts = 2
		return cfg
	}
	var runs []RunSpec
	for _, l := range lats {
		for _, cfg := range []sim.Config{oneP(l), bypP(l), twoP(l)} {
			runs = append(runs, RunSpec{Arch: DVA, Cfg: cfg})
		}
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &PortsResult{Latencies: lats}
	for i, p := range progs {
		for k, l := range lats {
			r1, rb, r2 := out[i][3*k], out[i][3*k+1], out[i][3*k+2]
			res.Rows = append(res.Rows, PortsRow{
				Name:     p.Name,
				Latency:  l,
				Dva1:     r1.Cycles,
				Byp1:     rb.Cycles,
				Dva2:     r2.Cycles,
				BypGain:  float64(r1.Cycles) / float64(rb.Cycles),
				PortGain: float64(r1.Cycles) / float64(r2.Cycles),
			})
		}
	}
	return res, nil
}
