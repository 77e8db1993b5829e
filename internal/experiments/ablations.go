package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// AblationPoint is the execution time of one program at one swept value.
type AblationPoint struct {
	Value  int
	Cycles int64
}

// AblationProgram is one program's series over the swept parameter.
type AblationProgram struct {
	Name   string
	Points []AblationPoint
}

// AblationResult is a one-parameter sensitivity study at fixed latency.
type AblationResult struct {
	Parameter string
	Latency   int64
	Values    []int
	Programs  []AblationProgram
}

// sweepParam runs the six benchmarks over cfgs (one per value).
func sweepParam(ctx context.Context, s *Suite, name string, latency int64, values []int, mk func(v int) sim.Config) (*AblationResult, error) {
	progs := workload.Simulated()
	var runs []RunSpec
	for _, v := range values {
		runs = append(runs, RunSpec{Arch: DVA, Cfg: mk(v)})
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Parameter: name, Latency: latency, Values: values}
	for i, p := range progs {
		ap := AblationProgram{Name: p.Name}
		for k, v := range values {
			ap.Points = append(ap.Points, AblationPoint{Value: v, Cycles: out[i][k].Cycles})
		}
		res.Programs = append(res.Programs, ap)
	}
	return res, nil
}

// AblationIQ reproduces the §5 instruction-queue sizing study: the paper
// found that shrinking the instruction queues from 512 to 16 slots costs
// under 2%.
func AblationIQ(ctx context.Context, s *Suite, latency int64) (*AblationResult, error) {
	if latency <= 0 {
		latency = 50
	}
	return sweepParam(ctx, s, "instruction queue slots", latency,
		[]int{4, 8, 16, 32, 512},
		func(v int) sim.Config {
			cfg := sim.DefaultConfig(latency)
			cfg.IQSize = v
			return cfg
		})
}

// AblationVSQ reproduces the §7 vector-store-queue study on the bypass
// configuration with a 4-slot load queue: eight slots capture ~95% of the
// benefit of sixteen.
func AblationVSQ(ctx context.Context, s *Suite, latency int64) (*AblationResult, error) {
	if latency <= 0 {
		latency = 50
	}
	return sweepParam(ctx, s, "vector store queue slots (BYP 4/x)", latency,
		[]int{4, 8, 16, 32, 256},
		func(v int) sim.Config {
			return sim.BypassConfig(latency, 4, v)
		})
}

// AblationAVDQ reproduces the §6/§8 load-queue finding: a four-slot AVDQ
// achieves most of the performance of an effectively infinite (256) queue,
// except for SPEC77, which uses the queue's depth.
func AblationAVDQ(ctx context.Context, s *Suite, latency int64) (*AblationResult, error) {
	if latency <= 0 {
		latency = 50
	}
	return sweepParam(ctx, s, "vector load queue slots (BYP x/16)", latency,
		[]int{2, 4, 8, 16, 256},
		func(v int) sim.Config {
			return sim.BypassConfig(latency, v, 16)
		})
}

// AblationQMov reproduces the §4.3 design decision: the VP carries two
// QMOV units "because otherwise the VP would be paying a high overhead in
// some very common sequences of code" (a load drain and a store fill in
// flight simultaneously). One unit should visibly hurt; more than two
// should buy almost nothing.
func AblationQMov(ctx context.Context, s *Suite, latency int64) (*AblationResult, error) {
	if latency <= 0 {
		latency = 50
	}
	return sweepParam(ctx, s, "VP QMOV units", latency,
		[]int{1, 2, 4},
		func(v int) sim.Config {
			cfg := sim.DefaultConfig(latency)
			cfg.QMovUnits = v
			return cfg
		})
}
