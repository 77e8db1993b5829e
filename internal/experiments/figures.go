package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// Figure1Row is one bar of Figure 1: the reference architecture's execution
// time at one memory latency, broken into the eight (FU2, FU1, LD) states.
type Figure1Row struct {
	Latency int64
	States  sim.StateStats
	// LDIdleFrac is the fraction of cycles where the memory port sat idle —
	// the cycles §3 argues decoupling can reclaim.
	LDIdleFrac float64
}

// Figure1Program groups the Figure 1 bars of one benchmark.
type Figure1Program struct {
	Name string
	Rows []Figure1Row
}

// Figure1Result reproduces Figure 1 for the six simulated benchmarks.
type Figure1Result struct {
	Latencies []int64
	Programs  []Figure1Program
}

// Figure1 runs the reference architecture at the Figure 1 latencies and
// collects the per-state cycle breakdowns.
func Figure1(ctx context.Context, s *Suite) (*Figure1Result, error) {
	lats := Figure1Latencies
	progs := workload.Simulated()
	var runs []RunSpec
	for _, l := range lats {
		runs = append(runs, RunSpec{Arch: REF, Cfg: sim.DefaultConfig(l)})
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{Latencies: lats}
	for i, p := range progs {
		fp := Figure1Program{Name: p.Name}
		for k, l := range lats {
			r := out[i][k]
			fp.Rows = append(fp.Rows, Figure1Row{
				Latency:    l,
				States:     r.States,
				LDIdleFrac: float64(r.States.LDIdle()) / float64(r.States.Total()),
			})
		}
		res.Programs = append(res.Programs, fp)
	}
	return res, nil
}

// SweepPoint is one latency point of the Figure 3 sweep.
type SweepPoint struct {
	Latency int64
	Ref     *sim.Result
	Dva     *sim.Result
}

// SweepProgram is the Figure 3/4/5 data of one benchmark: the IDEAL lower
// bound plus REF and DVA execution across the latency sweep.
type SweepProgram struct {
	Name   string
	Ideal  int64
	Points []SweepPoint
}

// Speedup returns the Figure 5 series: REF time over DVA time per latency.
func (sp *SweepProgram) Speedup() []float64 {
	out := make([]float64, len(sp.Points))
	for i, pt := range sp.Points {
		out[i] = float64(pt.Ref.Cycles) / float64(pt.Dva.Cycles)
	}
	return out
}

// StallRatio returns the Figure 4 series: the ratio of cycles spent in
// state < , , > on REF versus DVA per latency.
func (sp *SweepProgram) StallRatio() []float64 {
	out := make([]float64, len(sp.Points))
	for i, pt := range sp.Points {
		d := pt.Dva.States.Idle()
		if d == 0 {
			d = 1
		}
		out[i] = float64(pt.Ref.States.Idle()) / float64(d)
	}
	return out
}

// SweepResult is the shared dataset behind Figures 3, 4 and 5.
type SweepResult struct {
	Latencies []int64
	Programs  []SweepProgram
}

// Sweep runs the six simulated benchmarks on REF and DVA (default queue
// configuration: IQ 16, scalar queues 256, AVDQ 256, VADQ 16) across the
// latency sweep. Figures 3, 4 and 5 are all views of this dataset.
func Sweep(ctx context.Context, s *Suite, lats []int64) (*SweepResult, error) {
	if len(lats) == 0 {
		lats = DefaultLatencies
	}
	progs := workload.Simulated()
	var runs []RunSpec
	for _, l := range lats {
		cfg := sim.DefaultConfig(l)
		runs = append(runs,
			RunSpec{Arch: REF, Cfg: cfg},
			RunSpec{Arch: DVA, Cfg: cfg},
		)
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Latencies: lats}
	for i, p := range progs {
		sp := SweepProgram{Name: p.Name, Ideal: s.Ideal(ctx, p).Cycles}
		for k, l := range lats {
			sp.Points = append(sp.Points, SweepPoint{Latency: l, Ref: out[i][2*k], Dva: out[i][2*k+1]})
		}
		res.Programs = append(res.Programs, sp)
	}
	return res, nil
}

// Figure6Row is the AVDQ busy-slot distribution at one latency.
type Figure6Row struct {
	Latency int64
	// Hist[k] is the number of cycles the AVDQ held exactly k busy slots.
	Hist *sim.Histogram
}

// Figure6Program groups one benchmark's distributions.
type Figure6Program struct {
	Name string
	Rows []Figure6Row
}

// Figure6Result reproduces the Figure 6 histograms.
type Figure6Result struct {
	Latencies []int64
	Programs  []Figure6Program
}

// Figure6 measures the AVDQ occupancy distribution of the DVA (256-slot
// load queue) at the Figure 6 latencies.
func Figure6(ctx context.Context, s *Suite) (*Figure6Result, error) {
	lats := Figure6Latencies
	progs := workload.Simulated()
	var runs []RunSpec
	for _, l := range lats {
		runs = append(runs, RunSpec{Arch: DVA, Cfg: sim.DefaultConfig(l)})
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{Latencies: lats}
	for i, p := range progs {
		fp := Figure6Program{Name: p.Name}
		for k, l := range lats {
			fp.Rows = append(fp.Rows, Figure6Row{Latency: l, Hist: out[i][k].AVDQBusy})
		}
		res.Programs = append(res.Programs, fp)
	}
	return res, nil
}
