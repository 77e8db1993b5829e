package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// ConflictRow is one (program, jitter) point of the multiprocessor-conflict
// study.
type ConflictRow struct {
	Name    string
	Jitter  int64
	Ref     int64
	Dva     int64
	Speedup float64
}

// ConflictsResult is the extension study motivated by the paper's §1: in
// vector multiprocessors, memory latency varies with conflicts in the
// memory modules and the interconnection network; decoupling should absorb
// that variability the way it absorbs fixed latency.
type ConflictsResult struct {
	BaseLatency int64
	Jitters     []int64
	Rows        []ConflictRow
}

// ExtensionConflicts sweeps the per-access latency jitter at a fixed base
// latency and compares the two architectures under it.
func ExtensionConflicts(ctx context.Context, s *Suite, base int64, jitters []int64) (*ConflictsResult, error) {
	if base <= 0 {
		base = 20
	}
	if len(jitters) == 0 {
		jitters = []int64{0, 30, 60, 120}
	}
	progs := workload.Simulated()
	var runs []RunSpec
	mk := func(j int64) sim.Config {
		cfg := sim.DefaultConfig(base)
		cfg.LatencyJitter = j
		return cfg
	}
	for _, j := range jitters {
		runs = append(runs,
			RunSpec{Arch: REF, Cfg: mk(j)},
			RunSpec{Arch: DVA, Cfg: mk(j)})
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &ConflictsResult{BaseLatency: base, Jitters: jitters}
	for i, p := range progs {
		for k, j := range jitters {
			rr, rd := out[i][2*k], out[i][2*k+1]
			res.Rows = append(res.Rows, ConflictRow{
				Name:    p.Name,
				Jitter:  j,
				Ref:     rr.Cycles,
				Dva:     rd.Cycles,
				Speedup: float64(rr.Cycles) / float64(rd.Cycles),
			})
		}
	}
	return res, nil
}
