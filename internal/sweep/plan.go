// Package sweep is the distributed sweep engine: it enumerates a
// (program × arch × latency × queue) parameter grid as a streaming plan of
// cells, each an experiments.BatchJob and its plan index, shards the cells
// cache-affinely by the prefix of RunSpec.Key — every cell with
// the same key prefix routes to the same worker, so repeat sweeps land each
// cell on the worker whose disk tier already holds it — and drains the
// shards through pluggable executors: an in-process executor over
// experiments.Suite.RunBatch, and a remote executor speaking the dvad
// /v1/sweep protocol (wire.go), each cell a program and the RunParams that
// experiments.ParamsOf writes for its run, with bounded inflight, retry-
// with-backoff on 429/5xx, and failover re-sharding when a worker drops.
//
// Results merge deterministically in plan order whatever the workers'
// completion order, under the same errors.Join discipline as RunBatch: a
// partial sweep returns every completed result alongside the joined error.
// The paper's figures are dense grids of independent simulations; this
// package is what lets those grids be sized in millions of cells, bounded
// by cores and cache hits rather than one process's wall clock.
package sweep

import (
	"fmt"
	"math"

	"decvec/internal/experiments"
	"decvec/internal/workload"
)

// GridSpec names a (program × arch × latency × loadQ × storeQ) grid by its
// dimension values; its JSON form is the -grid file format of cmd/dvasweep.
// Empty dimensions take the paper defaults: the six simulated programs,
// REF and DVA, the Figure 3-5 latency sweep, default queue sizes.
type GridSpec struct {
	Programs  []string `json:"programs,omitempty"`
	Archs     []string `json:"archs,omitempty"`
	Latencies []int64  `json:"latencies,omitempty"`
	LoadQs    []int    `json:"loadqs,omitempty"`
	StoreQs   []int    `json:"storeqs,omitempty"`
}

// Plan is a compiled grid: the dimension arrays, never the cell product.
// Cells are decoded on demand by index, so a million-point plan costs the
// same memory as a ten-point one — O(points) appears only in the result
// slice a run necessarily returns.
type Plan struct {
	programs []*workload.Program
	archs    []experiments.RunSpec // the core and bypass bit of each arch value
	lats     []int64
	loadQs   []int
	storeQs  []int
	points   int
}

// NewPlan compiles a grid spec, resolving program names and architecture
// spellings and validating every dimension value up front — a plan that
// compiles cannot fail to enumerate.
func NewPlan(spec GridSpec) (*Plan, error) {
	p := &Plan{}
	if len(spec.Programs) == 0 {
		p.programs = workload.Simulated()
	} else {
		for _, name := range spec.Programs {
			prog, err := workload.Get(name)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			p.programs = append(p.programs, prog)
		}
	}
	p.lats = orDefault(spec.Latencies, experiments.DefaultLatencies)
	p.loadQs = orDefault(spec.LoadQs, []int{0})
	p.storeQs = orDefault(spec.StoreQs, []int{0})
	// Each dimension value must resolve as the one knob of a run: BYP
	// arrives as DVA with the bypass bit, so its cells share cache keys —
	// and therefore shards — with the equivalent DVA+bypass cells.
	for _, a := range orDefault(spec.Archs, []string{"REF", "DVA"}) {
		arch, err := experiments.RunParams{Arch: a, Latency: 1}.Resolve()
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		p.archs = append(p.archs, arch)
	}
	knobs := make([]experiments.RunParams, 0, len(p.lats)+len(p.loadQs)+len(p.storeQs))
	for _, l := range p.lats {
		knobs = append(knobs, experiments.RunParams{Arch: "DVA", Latency: l})
	}
	for _, q := range p.loadQs {
		knobs = append(knobs, experiments.RunParams{Arch: "DVA", Latency: 1, LoadQ: q})
	}
	for _, q := range p.storeQs {
		knobs = append(knobs, experiments.RunParams{Arch: "DVA", Latency: 1, StoreQ: q})
	}
	for _, k := range knobs {
		if _, err := k.Resolve(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	// A product that wrapped would slip past every point cap, negative or
	// small; a grid that large cannot be enumerated anyway.
	p.points = 1
	for _, n := range []int{len(p.programs), len(p.archs), len(p.lats), len(p.loadQs), len(p.storeQs)} {
		if p.points > math.MaxInt/n {
			return nil, fmt.Errorf("sweep: grid of %d×%d×%d×%d×%d points overflows", len(p.programs), len(p.archs), len(p.lats), len(p.loadQs), len(p.storeQs))
		}
		p.points *= n
	}
	return p, nil
}

// orDefault is v, or def when v is empty.
func orDefault[T any](v, def []T) []T {
	if len(v) == 0 {
		return def
	}
	return v
}

// Points returns the plan's cell count.
func (p *Plan) Points() int { return p.points }

// Programs returns the plan's program set (the coordinator hashes each
// program's trace once for key derivation).
func (p *Plan) Programs() []*workload.Program { return p.programs }

// Cell is one point of a plan: the batch job — program and RunSpec — that
// every executor runs, Remote sending it in the form ParamsOf writes. Index
// is the cell's position in plan order — the merge key: results land at
// out[Index] whatever worker produced them, in whatever order. Latency is
// Cfg.MemLatency again, kept only for cmd/dvaperf's diagnostics; nothing in
// this module reads it.
type Cell struct {
	Index int
	experiments.BatchJob
	Latency int64
}

// Cell decodes the i-th cell of plan order: programs outermost, then
// architectures, latencies, load queues, store queues innermost — programs
// outermost as in the experiment drivers' grids, so a distributed merge
// compares row-for-row with a local batch of the same grid.
func (p *Plan) Cell(i int) Cell {
	n := i
	sq := p.storeQs[n%len(p.storeQs)]
	n /= len(p.storeQs)
	lq := p.loadQs[n%len(p.loadQs)]
	n /= len(p.loadQs)
	lat := p.lats[n%len(p.lats)]
	n /= len(p.lats)
	spec := p.archs[n%len(p.archs)]
	n /= len(p.archs)

	spec.Cfg = experiments.RunParams{Latency: lat, LoadQ: lq, StoreQ: sq, Bypass: spec.Cfg.Bypass}.Config()
	return Cell{Index: i, BatchJob: experiments.BatchJob{Program: p.programs[n], RunSpec: spec}, Latency: lat}
}
