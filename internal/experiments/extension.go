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
	// Each latency is cols consecutive runs: REF, DVA, then OOO per window.
	cols := 2 + len(ExtensionOOOWindows)
	progs := workload.Simulated()
	var runs []RunSpec
	for _, l := range lats {
		cfg := sim.DefaultConfig(l)
		runs = append(runs, RunSpec{Arch: REF, Cfg: cfg}, RunSpec{Arch: DVA, Cfg: cfg})
		for _, w := range ExtensionOOOWindows {
			runs = append(runs, RunSpec{Arch: OOO, Cfg: cfg, Window: w, PhysRegs: 4 * physFloor(w)})
		}
	}
	out, err := s.grid(ctx, progs, runs)
	if err != nil {
		return nil, err
	}
	res := &ExtensionOOOResult{Latencies: lats, Windows: ExtensionOOOWindows}
	for i, p := range progs {
		for k, l := range lats {
			cells := out[i][k*cols : (k+1)*cols]
			row := ExtensionOOORow{Name: p.Name, Latency: l, Ref: cells[0].Cycles, Dva: cells[1].Cycles}
			for _, r := range cells[2:] {
				row.Ooo = append(row.Ooo, r.Cycles)
			}
			res.Rows = append(res.Rows, row)
		}
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
