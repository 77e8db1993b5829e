package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// BypassConfig names one §7 configuration: "BYP loadQ/storeQ".
type BypassConfig struct {
	Name   string
	LoadQ  int
	StoreQ int
}

// Figure7Configs are the four bypass configurations of Figure 7, compared
// against the plain DVA (256/16).
var Figure7Configs = []BypassConfig{
	{Name: "BYP 4/4", LoadQ: 4, StoreQ: 4},
	{Name: "BYP 4/8", LoadQ: 4, StoreQ: 8},
	{Name: "BYP 4/16", LoadQ: 4, StoreQ: 16},
	{Name: "BYP 256/16", LoadQ: 256, StoreQ: 16},
}

// Figure7Point is one latency point of a Figure 7 series.
type Figure7Point struct {
	Latency int64
	Cycles  int64
}

// Figure7Series is one curve of a Figure 7 panel.
type Figure7Series struct {
	Name   string
	Points []Figure7Point
}

// Figure7Program is one benchmark's panel: IDEAL, the DVA baseline and the
// four bypass configurations.
type Figure7Program struct {
	Name   string
	Ideal  int64
	Series []Figure7Series
}

// Figure7Result reproduces Figure 7.
type Figure7Result struct {
	Latencies []int64
	Programs  []Figure7Program
}

// Figure7 sweeps the bypass configurations against the DVA across memory
// latencies.
func Figure7(ctx context.Context, s *Suite, lats []int64) (*Figure7Result, error) {
	if len(lats) == 0 {
		lats = DefaultLatencies
	}
	progs := workload.Simulated()
	var runs []RunSpec
	for _, l := range lats {
		runs = append(runs, RunSpec{Arch: DVA, Cfg: sim.DefaultConfig(l)})
		for _, bc := range Figure7Configs {
			runs = append(runs, RunSpec{Arch: DVA, Cfg: sim.BypassConfig(l, bc.LoadQ, bc.StoreQ)})
		}
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	// Each latency is one run per series, consecutive: the DVA, then every
	// bypass configuration.
	series := []string{"DVA 256/16"}
	for _, bc := range Figure7Configs {
		series = append(series, bc.Name)
	}
	res := &Figure7Result{Latencies: lats}
	for i, p := range progs {
		fp := Figure7Program{Name: p.Name, Ideal: s.Ideal(ctx, p).Cycles}
		for c, name := range series {
			ser := Figure7Series{Name: name}
			for k, l := range lats {
				ser.Points = append(ser.Points, Figure7Point{Latency: l, Cycles: out[i][k*len(series)+c].Cycles})
			}
			fp.Series = append(fp.Series, ser)
		}
		res.Programs = append(res.Programs, fp)
	}
	return res, nil
}

// Figure8Row is one bar of Figure 8: the total memory traffic of the DVA
// 256/16 versus the BYP 256/16 and the resulting reduction.
type Figure8Row struct {
	Name          string
	DvaElems      int64
	BypElems      int64
	Bypasses      int64
	ReductionFrac float64 // (DVA - BYP) / DVA
}

// Figure8Result reproduces Figure 8 (measured at the latency the paper's
// §7 used for its traffic comparison; the ratio is essentially flat in L
// because bypass eligibility depends on queue contents, not latency).
type Figure8Result struct {
	Latency int64
	Rows    []Figure8Row
}

// Figure8 compares total memory traffic of DVA 256/16 and BYP 256/16.
func Figure8(ctx context.Context, s *Suite, latency int64) (*Figure8Result, error) {
	if latency <= 0 {
		latency = 30
	}
	progs := workload.Simulated()
	runs := []RunSpec{
		{Arch: DVA, Cfg: sim.DefaultConfig(latency)},
		{Arch: DVA, Cfg: sim.BypassConfig(latency, 256, 16)},
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{Latency: latency}
	for i, p := range progs {
		rd, rb := out[i][0], out[i][1]
		row := Figure8Row{
			Name:     p.Name,
			DvaElems: rd.Traffic.Total(),
			BypElems: rb.Traffic.Total(),
			Bypasses: rb.Bypasses,
		}
		if row.DvaElems > 0 {
			row.ReductionFrac = float64(row.DvaElems-row.BypElems) / float64(row.DvaElems)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
