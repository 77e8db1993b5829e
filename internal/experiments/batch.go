package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"decvec/internal/dva"
	"decvec/internal/ooo"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// Pooled per-core run arenas, shared by every suite in the process. A
// Runner keeps one machine's worth of queues, scoreboards and scratch alive
// across runs and resets it in place (the Reset contract in
// internal/sim/arena.go), so a sweep's ten-thousandth simulation allocates
// exactly as much as its second: nothing. The pools are process-global
// because runners carry no cross-run state — every run re-seeds the machine
// from its config alone.
var (
	refRunners sim.RunPool[*ref.Runner]
	dvaRunners sim.RunPool[*dva.Runner]
	oooRunners sim.RunPool[*ooo.Runner]
)

var errUnknownArch = errors.New("experiments: unknown architecture")

// dispatch performs one uncached simulator invocation on a pooled machine.
// This is the batch hot loop: everything per run up to the core's own
// (hot-path-gated) stepping must stay allocation-free, so the function
// sits under the hotalloc gate.
// declint:hotpath
func dispatch(tr *trace.Slice, spec RunSpec) (*sim.Result, error) {
	switch spec.Arch {
	case REF:
		return runPooled(&refRunners, ref.NewRunner, tr, spec.Cfg)
	case DVA:
		return runPooled(&dvaRunners, dva.NewRunner, tr, spec.Cfg)
	case OOO:
		return runPooled(&oooRunners, ooo.NewRunner, tr, ooo.Config{Config: spec.Cfg, Window: spec.Window, PhysRegs: spec.PhysRegs})
	default:
		return nil, errUnknownArch
	}
}

// runPooled leases a machine from pool, building one when the pool is
// empty, and runs tr on it. The machine goes back to the pool even when
// the run fails — reset restores it either way.
func runPooled[M interface {
	Run(*trace.Slice, C) (*sim.Result, error)
}, C any](pool *sim.RunPool[M], fresh func() M, tr *trace.Slice, cfg C) (*sim.Result, error) {
	m, ok := pool.Get()
	if !ok {
		m = fresh()
	}
	r, err := m.Run(tr, cfg)
	pool.Put(m)
	return r, err
}

// BatchJob is one simulation of a batch: a program run as its RunSpec
// describes.
type BatchJob struct {
	Program *workload.Program
	RunSpec
}

// RunBatch steps many independent traces through the pooled machines and
// returns the results in job order. The batch is staged for throughput:
//
//   - cold: every distinct trace is materialized and hashed once, across
//     the CPUs;
//   - hot: duplicate (program, arch, config) cells are collapsed, grouped
//     by trace so consecutive runs on a worker replay an instruction slab
//     that is already cache-hot, ordered longest-expected-first, and
//     drained by a worker pool in which every simulation reuses a pooled
//     machine (through the suite's singleflight and disk tiers, so a batch
//     shares results with — and publishes results to — every other caller).
//
// Errors do not mask each other: all cells run, the joined aggregate is
// returned, and the cells that did succeed come back alongside it — a
// partial batch returns every completed result with nil holes at the failed
// positions. Cancellation skips cells not yet started.
func (s *Suite) RunBatch(ctx context.Context, jobs []BatchJob) ([]*sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}

	// Cold phase: materialize and hash every distinct trace in parallel, so
	// no hot worker ever stalls generating instructions. Programs are
	// deduped by name — which is also what their trace memo keys on — so
	// two distinct definitions sharing a name would silently answer one
	// cell with the other's trace. Refuse the whole batch instead.
	progs := make(map[string]*workload.Program, 8)
	mats := make([]func() error, 0, 8)
	for _, j := range jobs {
		if prev, ok := progs[j.Program.Name]; ok {
			if prev != j.Program {
				return nil, fmt.Errorf("experiments: batch contains two distinct programs named %q; results would be keyed interchangeably", j.Program.Name)
			}
			continue
		}
		progs[j.Program.Name] = j.Program
		p := j.Program
		mats = append(mats, func() error {
			p.CachedTraceHash(s.Scale) // a hash error leaves the program's cells uncached
			return nil
		})
	}
	if err := parallelCtx(ctx, mats); err != nil {
		return nil, err
	}

	// Collapse duplicate cells; remember every distinct one once.
	type cell struct {
		job  BatchJob
		cost int64
	}
	results := make(map[BatchJob]*sim.Result, len(jobs))
	cells := make([]cell, 0, len(jobs))
	progCost := make(map[string]int64, len(progs))
	for _, j := range jobs {
		if _, ok := results[j]; ok {
			continue
		}
		results[j] = nil
		c := cell{job: j, cost: int64(j.Program.CachedTrace(s.Scale).Len()) * j.Cfg.MemLatency}
		cells = append(cells, c)
		progCost[j.Program.Name] += c.cost
	}

	// Batched interleave: all of one trace's cells run back to back (its
	// instruction slab stays hot in cache), heaviest trace first, and within
	// a trace heaviest cell first, so the long simulations start immediately
	// and short ones fill the remaining worker capacity.
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i].job.Program.Name, cells[j].job.Program.Name
		if a != b {
			ca, cb := progCost[a], progCost[b]
			if ca != cb {
				return ca > cb
			}
			return a < b
		}
		return cells[i].cost > cells[j].cost
	})

	// Hot phase: drain the cells across the CPUs, each worker recording its
	// own cell's outcome in place (distinct slots, so no lock is needed).
	// The suite's run path supplies the singleflight and cache tiers; the
	// simulation itself lands on a pooled machine via dispatch. parallelCtx
	// runs every cell and joins every error — one failed cell must neither
	// hide another's failure nor discard the cells that succeeded.
	got := make([]*sim.Result, len(cells))
	fns := make([]func() error, len(cells))
	for i, c := range cells {
		j := c.job
		fns[i] = func() error {
			r, err := s.RunCtx(ctx, j.Program, j.RunSpec)
			got[i] = r
			return err
		}
	}
	hotErr := parallelCtx(ctx, fns)

	// Collect in job order from the recorded outcomes — never by re-running
	// a cell, which for a failed cell would mean a second simulation whose
	// error masks the first. Failed cells leave nil holes; the joined
	// hot-phase aggregate carries every cause.
	for i, c := range cells {
		results[c.job] = got[i]
	}
	out := make([]*sim.Result, len(jobs))
	for i, j := range jobs {
		out[i] = results[j]
	}
	return out, hotErr
}
