package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"decvec/internal/sim"
)

// Shard maps a cache-key prefix to one of n shards. The prefix is
// simcache.KeyPrefixLen hex digits of the cell's content-addressed key, so
// the mapping is a pure function of (model, trace, arch, config): the same
// cell routes to the same shard in every sweep against the same worker
// count, which is what keeps each worker's disk tier hot across repeat
// sweeps.
func Shard(prefix string, n int) int {
	if n <= 1 {
		return 0
	}
	v, err := strconv.ParseUint(prefix, 16, 64)
	if err != nil {
		// Not a hex prefix — DeriveKey never produces one, but routing
		// must stay total and deterministic, so fold the bytes instead.
		for _, b := range []byte(prefix) {
			v = v*131 + uint64(b)
		}
	}
	return int(v % uint64(n))
}

// Options tune a coordinated sweep; the zero value is production-ready.
type Options struct {
	// Scale is the trace scale factor used for key derivation; it must
	// match the workers' -scale for cache affinity to land (a mismatch
	// only costs hit ratio, never correctness). Default
	// workload.DefaultScale via the suite convention: 1.0.
	Scale float64
	// Fingerprint overrides sim.ModelFingerprint in key derivation
	// (tests).
	Fingerprint string
	// ChunkSize caps the cells of one executor dispatch (default 128).
	ChunkSize int
	// Inflight is how many chunks one worker processes concurrently — the
	// per-worker bounded inflight (default 2: one on the wire while one
	// is being assembled keeps a worker busy without flooding its
	// admission queue).
	Inflight int
	// Progress, when non-nil, is called after every completed chunk with
	// the running completed-cell count and the plan total. It must be
	// safe for concurrent use.
	Progress func(done, total int)
}

// WorkerStats is one worker's slice of a sweep's Stats: how many cells it
// completed, how its disk tier performed, how often its requests had to be
// retried, and whether it died along the way.
type WorkerStats struct {
	Name        string  `json:"name"`
	Cells       int64   `json:"cells"` // cells this worker completed
	CacheHits   int64   `json:"cacheHits"`
	CacheMisses int64   `json:"cacheMisses"`
	HitRatio    float64 `json:"hitRatio"` // CacheHits / (CacheHits + CacheMisses)
	Retries     int64   `json:"retries"`
	Failed      bool    `json:"failed,omitempty"`    // worker went down during the sweep
	LastError   string  `json:"lastError,omitempty"` // the failure that took it down, if any
}

// Stats is the sweep-level outcome summary; its JSON form is the dvasweep
// end-of-run report.
type Stats struct {
	Points    int           `json:"points"`    // plan cells
	Completed int64         `json:"completed"` // cells with results
	Resharded int64         `json:"resharded"` // cells moved to surviving workers after a death
	Rounds    int           `json:"rounds"`    // dispatch rounds (1 = no failover needed)
	Workers   []WorkerStats `json:"workers"`
}

// indexedErr keeps a permanent cell error with its plan position, so the
// joined aggregate reads in plan order whatever order workers failed in.
type indexedErr struct {
	index int
	err   error
}

// workerState is the coordinator's view of one executor during a round.
type workerState struct {
	exec   Executor
	chunks chan []Cell

	down     atomic.Bool
	done     atomic.Int64
	mu       sync.Mutex
	owed     []Cell // cells to re-shard after going down
	permErrs []indexedErr
	downErr  error
}

// Run drains the plan through the executors and merges the results in plan
// order: out[i] is plan cell i's result wherever and whenever it ran, so a
// distributed sweep is positionally — and, through the canonical binary
// encoding, byte — identical to a single-process RunBatch of the same
// grid.
//
// Cells shard by cache-key prefix (Shard) and stream to each worker in
// bounded chunks — the plan is never materialized beyond the open chunk
// per worker plus the inflight bound, so grid size costs memory only in
// the result slice. When a worker goes down (ErrWorkerDown), the next
// round re-shards its unfinished cells across the survivors; the sweep
// fails only when cells remain and no worker does.
//
// Error discipline matches RunBatch: every runnable cell runs, permanent
// per-cell errors join — sorted by plan position for determinism — and the
// completed results come back alongside the joined error, nil holes at the
// failed positions.
func Run(ctx context.Context, plan *Plan, execs []Executor, opts Options) ([]*sim.Result, Stats, error) {
	points := plan.Points()
	st := Stats{Points: points, Workers: make([]WorkerStats, 0, len(execs))}
	if len(execs) == 0 {
		return nil, st, errors.New("sweep: no executors")
	}
	out := make([]*sim.Result, points)
	if points == 0 {
		for _, e := range execs {
			st.Workers = append(st.Workers, workerStatsOf(e, nil))
		}
		return out, st, nil
	}

	scale := opts.Scale
	if !(scale > 0) {
		scale = 1.0
	}
	fp := opts.Fingerprint
	if fp == "" {
		fp = sim.ModelFingerprint
	}
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = 128
	}
	inflight := opts.Inflight
	if inflight <= 0 {
		inflight = 2
	}

	// One trace hash per program covers every cell's key derivation.
	traceHash := make(map[string][32]byte, len(plan.Programs()))
	for _, p := range plan.Programs() {
		h, err := p.CachedTraceHash(scale)
		if err != nil {
			return nil, st, fmt.Errorf("sweep: hashing %s trace: %w", p.Name, err)
		}
		traceHash[p.Name] = h
	}

	var completed atomic.Int64
	progress := func() {
		if opts.Progress != nil {
			opts.Progress(int(completed.Load()), points)
		}
	}

	workers := make([]*workerState, len(execs))
	for i, e := range execs {
		workers[i] = &workerState{exec: e}
	}
	// alive is compacted in place between rounds, so it must not share its
	// array with the workers list the final stats walk.
	alive := append([]*workerState(nil), workers...)

	var permErrs []indexedErr
	var remaining []Cell
	for {
		st.Rounds++

		// Start this round's workers. Each drains its own chunk channel
		// through a per-worker inflight window; a worker that goes down
		// keeps draining — recording cells as owed — so the feeder below
		// can never block forever on a dead worker's channel.
		var wg sync.WaitGroup
		for _, w := range alive {
			w.chunks = make(chan []Cell, inflight)
			wg.Add(1)
			go func(w *workerState) {
				defer wg.Done()
				runWorker(ctx, w, out, inflight, &completed, progress)
			}(w)
		}

		// Feed: enumerate this round's cells — streamed straight off the
		// plan in round one, the re-shard remainder afterwards — routing
		// each to its shard's worker and dispatching chunks as they fill.
		// Memory here is one open chunk per worker, not O(points).
		open := make([][]Cell, len(alive))
		feed := func(c Cell) {
			// c.Key is RunSpec.Key: the key the worker's disk tier stores
			// the result under, which is what makes Shard cache-affine.
			sh := Shard(c.Key(fp, traceHash[c.Program.Name]).Prefix(), len(alive))
			open[sh] = append(open[sh], c)
			if len(open[sh]) >= chunkSize {
				alive[sh].chunks <- open[sh]
				open[sh] = nil
			}
		}
		if st.Rounds == 1 {
			for i := 0; i < points; i++ {
				feed(plan.Cell(i))
			}
		} else {
			for _, c := range remaining {
				feed(c)
			}
		}
		for sh, cs := range open {
			if len(cs) > 0 {
				alive[sh].chunks <- cs
			}
		}
		for _, w := range alive {
			close(w.chunks)
		}
		wg.Wait()

		// Collect the round: permanent errors accumulate, dead workers
		// leave the rotation, their owed cells become the next round.
		remaining = remaining[:0]
		next := alive[:0]
		for _, w := range alive {
			w.mu.Lock()
			permErrs = append(permErrs, w.permErrs...)
			w.permErrs = nil
			owed := w.owed
			w.owed = nil
			w.mu.Unlock()
			remaining = append(remaining, owed...)
			if w.down.Load() {
				continue
			}
			next = append(next, w)
		}
		alive = next

		if len(remaining) == 0 {
			break
		}
		if ctx.Err() != nil {
			permErrs = append(permErrs, indexedErr{remaining[0].Index, ctx.Err()})
			break
		}
		if len(alive) == 0 {
			permErrs = append(permErrs, indexedErr{remaining[0].Index,
				fmt.Errorf("sweep: %d cells unassigned: every worker failed", len(remaining))})
			break
		}
		st.Resharded += int64(len(remaining))
	}

	st.Completed = completed.Load()
	for _, w := range workers {
		ws := workerStatsOf(w.exec, w)
		st.Workers = append(st.Workers, ws)
	}

	sort.SliceStable(permErrs, func(i, j int) bool { return permErrs[i].index < permErrs[j].index })
	errs := make([]error, len(permErrs))
	for i, pe := range permErrs {
		errs[i] = pe.err
	}
	return out, st, errors.Join(errs...)
}

// runWorker drains one worker's chunk channel for a round, keeping up to
// inflight chunks in flight at once. Results land at out[cell.Index] —
// distinct slots, so no lock guards the result slice. A chunk whose
// executor reports ErrWorkerDown marks the worker down; its unfinished
// cells, and every chunk still queued, are recorded as owed for
// re-sharding.
func runWorker(ctx context.Context, w *workerState, out []*sim.Result, inflight int, completed *atomic.Int64, progress func()) {
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for cells := range w.chunks {
		if w.down.Load() || ctx.Err() != nil {
			w.mu.Lock()
			w.owed = append(w.owed, cells...)
			w.mu.Unlock()
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(cells []Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := w.exec.Run(ctx, cells)
			var missing []Cell
			for i, c := range cells {
				if i < len(res) && res[i] != nil {
					out[c.Index] = res[i]
					w.done.Add(1)
					completed.Add(1)
				} else {
					missing = append(missing, c)
				}
			}
			progress()
			switch {
			case err == nil:
				if len(missing) > 0 {
					// An executor must explain every nil slot; a silent
					// hole is a protocol bug, surfaced loudly.
					w.mu.Lock()
					w.permErrs = append(w.permErrs, indexedErr{missing[0].Index,
						fmt.Errorf("sweep: worker %s returned no result and no error for %d cells", w.exec.Name(), len(missing))})
					w.mu.Unlock()
				}
			case errors.Is(err, ErrWorkerDown):
				w.down.Store(true)
				w.mu.Lock()
				w.owed = append(w.owed, missing...)
				if w.downErr == nil {
					w.downErr = err
				}
				w.mu.Unlock()
			default:
				// Permanent: the joined error explains the nil holes.
				idx := cells[0].Index
				if len(missing) > 0 {
					idx = missing[0].Index
				}
				w.mu.Lock()
				w.permErrs = append(w.permErrs, indexedErr{idx, err})
				w.mu.Unlock()
			}
		}(cells)
	}
	wg.Wait()
}

// workerStatsOf folds an executor's counters into the stats row.
func workerStatsOf(e Executor, w *workerState) WorkerStats {
	ws := WorkerStats{Name: e.Name()}
	es := e.Stats()
	ws.CacheHits = es.CacheHits
	ws.CacheMisses = es.CacheMisses
	ws.Retries = es.Retries
	if total := es.CacheHits + es.CacheMisses; total > 0 {
		ws.HitRatio = float64(es.CacheHits) / float64(total)
	}
	if w != nil {
		ws.Cells = w.done.Load()
		ws.Failed = w.down.Load()
		w.mu.Lock()
		if w.downErr != nil {
			ws.LastError = w.downErr.Error()
		}
		w.mu.Unlock()
	}
	return ws
}
