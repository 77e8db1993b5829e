// Package sweep is the distributed sweep engine: it enumerates a
// (program × arch × latency × queue) parameter grid as a streaming plan,
// shards its cells cache-affinely by simcache key prefix — every cell with
// the same key prefix routes to the same worker, so repeat sweeps land each
// cell on the worker whose disk tier already holds it — and drains the
// shards through pluggable executors: an in-process executor over
// experiments.Suite.RunBatch, and a remote executor speaking the dvad
// /v1/sweep protocol (wire.go) with bounded inflight, retry-with-
// backoff on 429/5xx, and failover re-sharding when a worker drops.
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
	"decvec/internal/sim"
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

// archSpec is one resolved architecture dimension value: BYP arrives as
// DVA with the bypass bit, so its cells share cache keys — and therefore
// shards — with the equivalent DVA+bypass cells.
type archSpec struct {
	arch   experiments.Arch
	bypass bool
}

// Plan is a compiled grid: the dimension arrays, never the cell product.
// Cells are decoded on demand by index, so a million-point plan costs the
// same memory as a ten-point one — O(points) appears only in the result
// slice a run necessarily returns.
type Plan struct {
	programs []*workload.Program
	archs    []archSpec
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
	archs := spec.Archs
	if len(archs) == 0 {
		archs = []string{"REF", "DVA"}
	}
	for _, a := range archs {
		core, bypass, err := sim.ParseArch(a)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		p.archs = append(p.archs, archSpec{arch: experiments.Arch(core), bypass: bypass})
	}
	p.lats = spec.Latencies
	if len(p.lats) == 0 {
		p.lats = experiments.DefaultLatencies
	}
	for _, l := range p.lats {
		if l <= 0 || l > sim.MaxMemLatency {
			return nil, fmt.Errorf("sweep: latency must be in [1, %d], got %d", sim.MaxMemLatency, l)
		}
	}
	for _, q := range spec.LoadQs {
		if q < 0 || q > sim.MaxQueueSlots {
			return nil, fmt.Errorf("sweep: load queue size must be in [0, %d], got %d", sim.MaxQueueSlots, q)
		}
	}
	for _, q := range spec.StoreQs {
		if q < 0 || q > sim.MaxQueueSlots {
			return nil, fmt.Errorf("sweep: store queue size must be in [0, %d], got %d", sim.MaxQueueSlots, q)
		}
	}
	p.loadQs = spec.LoadQs
	if len(p.loadQs) == 0 {
		p.loadQs = []int{0}
	}
	p.storeQs = spec.StoreQs
	if len(p.storeQs) == 0 {
		p.storeQs = []int{0}
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

// Points returns the plan's cell count.
func (p *Plan) Points() int { return p.points }

// Programs returns the plan's program set (the coordinator hashes each
// program's trace once for key derivation).
func (p *Plan) Programs() []*workload.Program { return p.programs }

// Cell is one (program, architecture, configuration) point of a plan,
// carrying both the materialized sim.Config the executors run and the raw
// dimension values the remote wire protocol speaks. Index is the cell's
// position in plan order — the merge key: results land at out[Index]
// whatever worker produced them, in whatever order.
type Cell struct {
	Index   int
	Program *workload.Program
	Arch    experiments.Arch
	Cfg     sim.Config

	// Raw dimension values for the dvad wire protocol, WireCell
	// (0 = worker default).
	Latency int64
	LoadQ   int
	StoreQ  int
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
	a := p.archs[n%len(p.archs)]
	n /= len(p.archs)
	prog := p.programs[n]

	return Cell{
		Index:   i,
		Program: prog,
		Arch:    a.arch,
		Cfg:     experiments.RunParams{Latency: lat, LoadQ: lq, StoreQ: sq, Bypass: a.bypass}.Config(),
		Latency: lat,
		LoadQ:   lq,
		StoreQ:  sq,
	}
}

// Job converts the cell to its batch-job form for the in-process executor.
func (c Cell) Job() experiments.BatchJob {
	return experiments.BatchJob{Program: c.Program, RunSpec: experiments.RunSpec{Arch: c.Arch, Cfg: c.Cfg}}
}
