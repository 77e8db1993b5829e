package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// ExtensionOOORow is one (program, latency) comparison between the
// reference architecture, the decoupled architecture and out-of-order
// execution with register renaming at several window sizes.
type ExtensionOOORow struct {
	Name    string
	Latency int64
	Ref     int64
	Dva     int64
	// Ooo holds cycles per window size, aligned with ExtensionOOOWindows.
	Ooo []int64
}

// ExtensionOOOWindows are the issue-window sizes swept by the extension
// study.
var ExtensionOOOWindows = []int{4, 16, 64}

// ExtensionOOOResult is the §8 future-work study: decoupling versus
// out-of-order execution and register renaming.
type ExtensionOOOResult struct {
	Latencies []int64
	Windows   []int
	Rows      []ExtensionOOORow
}

// ExtensionOOO compares REF, DVA and OOO across latencies. The OOO machine
// shares the reference datapath (two FUs, one port, no load chaining) and
// issue bandwidth (one per cycle), differing only in its issue window and
// physical-register renaming — the cleanest head-to-head the paper's §8
// asks for.
func ExtensionOOO(ctx context.Context, s *Suite, lats []int64) (*ExtensionOOOResult, error) {
	if len(lats) == 0 {
		lats = []int64{1, 30, 100}
	}
	// One batch runs every REF, DVA and OOO cell; each (program, latency)
	// row is cols consecutive jobs: REF, DVA, then OOO per window.
	cols := 2 + len(ExtensionOOOWindows)
	var jobs []BatchJob
	for _, p := range workload.Simulated() {
		for _, l := range lats {
			cfg := sim.DefaultConfig(l)
			jobs = append(jobs, BatchJob{Program: p, Arch: REF, Cfg: cfg}, BatchJob{Program: p, Arch: DVA, Cfg: cfg})
			for _, w := range ExtensionOOOWindows {
				jobs = append(jobs, BatchJob{Program: p, Arch: OOO, Cfg: cfg, Window: w, PhysRegs: 4 * physFloor(w)})
			}
		}
	}
	out, err := s.RunBatch(ctx, jobs)
	if err != nil {
		return nil, err
	}
	res := &ExtensionOOOResult{Latencies: lats, Windows: ExtensionOOOWindows}
	for i := 0; i < len(out); i += cols {
		row := ExtensionOOORow{Name: jobs[i].Program.Name, Latency: jobs[i].Cfg.MemLatency, Ref: out[i].Cycles, Dva: out[i+1].Cycles}
		for _, r := range out[i+2 : i+cols] {
			row.Ooo = append(row.Ooo, r.Cycles)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// physFloor sizes the physical register pool relative to the window with a
// floor of the architectural count.
func physFloor(w int) int {
	if w < 8 {
		return 8
	}
	return w
}
