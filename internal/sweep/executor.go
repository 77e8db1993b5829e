package sweep

import (
	"context"
	"errors"

	"decvec/internal/experiments"
	"decvec/internal/sim"
	"decvec/internal/simcache"
)

// ErrWorkerDown marks an executor failure that warrants failover: the
// executor can no longer make progress at all (connection refused, retries
// exhausted, process gone), as opposed to a cell that failed on its own
// merits. The coordinator responds by marking the worker dead and
// re-sharding its unfinished cells across the survivors; any other error is
// permanent for the cells it explains.
var ErrWorkerDown = errors.New("sweep: worker down")

// Executor drains shard chunks for one worker.
//
// Run executes the cells and reports positionally: res[i] is cells[i]'s
// result, or nil when that cell has none. A nil slot paired with an error
// wrapping ErrWorkerDown is owed — the coordinator re-dispatches it
// elsewhere; a nil slot under any other error is that cell failing
// permanently. Run may be called concurrently up to the coordinator's
// per-worker inflight bound.
type Executor interface {
	// Name identifies the worker in stats and diagnostics.
	Name() string
	Run(ctx context.Context, cells []Cell) ([]*sim.Result, error)
	// Stats snapshots the executor's lifetime counters.
	Stats() ExecutorStats
}

// ExecutorStats are one worker's counters over the executor's lifetime.
type ExecutorStats struct {
	CacheHits   int64 // disk-tier hits observed at this worker during the sweep
	CacheMisses int64 // disk-tier misses likewise
	Retries     int64 // request retries (remote transport errors, 429s, 5xx)
}

// Local is the in-process executor: its shard drains through
// Suite.RunBatch on the caller's own machine, which also makes it the
// fallback when no remote workers are configured. Cache counters are the
// suite's disk-tier deltas since the executor was created.
type Local struct {
	name  string
	suite *experiments.Suite
	base  simcache.Stats
}

// NewLocal returns a local executor over the suite.
func NewLocal(name string, suite *experiments.Suite) *Local {
	return &Local{name: name, suite: suite, base: suite.CacheStats()}
}

// Name implements Executor.
func (l *Local) Name() string { return l.name }

// Run implements Executor via RunBatch, inheriting its whole pipeline:
// cold trace materialization, duplicate collapsing, trace-grouped hot
// drain, singleflight and disk tiers. RunBatch's partial-result contract
// maps directly onto the executor one: completed cells come back, failed
// cells are nil holes under the joined error.
func (l *Local) Run(ctx context.Context, cells []Cell) ([]*sim.Result, error) {
	jobs := make([]experiments.BatchJob, len(cells))
	for i, c := range cells {
		jobs[i] = c.BatchJob
	}
	return l.suite.RunBatch(ctx, jobs)
}

// Stats implements Executor.
func (l *Local) Stats() ExecutorStats {
	st := l.suite.CacheStats()
	return ExecutorStats{
		CacheHits:   st.Hits - l.base.Hits,
		CacheMisses: st.Misses - l.base.Misses,
	}
}
