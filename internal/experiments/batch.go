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

var (
	errUnknownArch = errors.New("experiments: unknown architecture")
	errRecordedOOO = errors.New("experiments: the OOO core records no events")
)

// Simulate performs one uncached simulator invocation on a pooled machine.
// It is the one place an architecture maps to a core: the suite's run path,
// the decvec facade and the commands all simulate through it. rec, when
// non-nil, collects the run's event stream; the OOO core records none, so
// an OOO run with a recorder is an error. This is the batch hot loop:
// everything per run up to the core's own (hot-path-gated) stepping must
// stay allocation-free beyond the result, so the function sits under the
// hotalloc gate.
// declint:hotpath
func Simulate(tr *trace.Slice, spec RunSpec, rec *sim.Recorder) (*sim.Result, error) {
	res := new(sim.Result)
	var err error
	switch spec.Arch {
	case REF:
		m := lease(&refRunners, ref.NewRunner)
		err = m.RunRecordedInto(res, tr, spec.Cfg, rec)
		refRunners.Put(m)
	case DVA:
		m := lease(&dvaRunners, dva.NewRunner)
		err = m.RunRecordedInto(res, tr, spec.Cfg, rec)
		dvaRunners.Put(m)
	case OOO:
		if rec != nil {
			return nil, errRecordedOOO
		}
		m := lease(&oooRunners, ooo.NewRunner)
		err = m.RunInto(res, tr, ooo.Config{Config: spec.Cfg, Window: spec.Window, PhysRegs: spec.PhysRegs})
		oooRunners.Put(m)
	default:
		return nil, errUnknownArch
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// lease takes a machine from pool, building one when the pool is empty.
// The caller puts it back after the run, even a failed one: the next run's
// reset restores it either way.
func lease[M any](pool *sim.RunPool[M], fresh func() M) M {
	if m, ok := pool.Get(); ok {
		return m
	}
	return fresh()
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
	distinct := make([]*workload.Program, 0, 8)
	for _, j := range jobs {
		if prev, ok := progs[j.Program.Name]; ok {
			if prev != j.Program {
				return nil, fmt.Errorf("experiments: batch contains two distinct programs named %q; results would be keyed interchangeably", j.Program.Name)
			}
			continue
		}
		progs[j.Program.Name] = j.Program
		distinct = append(distinct, j.Program)
	}
	err := Parallel(ctx, len(distinct), func(i int) error {
		distinct[i].CachedTraceHash(s.Scale) // a hash error leaves the program's cells uncached
		return nil
	})
	if err != nil {
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
	// simulation itself lands on a pooled machine via Simulate. Parallel
	// runs every cell and joins every error — one failed cell must neither
	// hide another's failure nor discard the cells that succeeded.
	got := make([]*sim.Result, len(cells))
	hotErr := Parallel(ctx, len(cells), func(i int) error {
		j := &cells[i].job
		r, err := s.RunCtx(ctx, j.Program, j.RunSpec)
		got[i] = r
		return err
	})

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
