package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"decvec/internal/sim"
)

// testPlan builds an n-cell single-program plan (one cell per latency).
func testPlan(t *testing.T, n int) *Plan {
	t.Helper()
	lats := make([]int64, n)
	for i := range lats {
		lats[i] = int64(i + 1)
	}
	p, err := NewPlan(GridSpec{Programs: []string{"BDNA"}, Archs: []string{"DVA"}, Latencies: lats})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fakeExec is an in-memory executor: each cell's "result" encodes its plan
// index as the cycle count, chunks complete in reverse order, and an
// executor can be told to die after a given number of cells.
type fakeExec struct {
	name     string
	count    atomic.Int64
	dieAfter int64 // die once count reaches this; <0 = never
}

func (f *fakeExec) Name() string         { return f.name }
func (f *fakeExec) Stats() ExecutorStats { return ExecutorStats{} }

func (f *fakeExec) Run(ctx context.Context, cells []Cell) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cells))
	// Reverse order: completion order must not matter to the merge.
	for i := len(cells) - 1; i >= 0; i-- {
		if f.dieAfter >= 0 && f.count.Load() >= f.dieAfter {
			return out, fmt.Errorf("%s crashed: %w", f.name, ErrWorkerDown)
		}
		out[i] = &sim.Result{Cycles: int64(cells[i].Index)}
		f.count.Add(1)
	}
	return out, nil
}

// The same key prefix must always land on the same shard — that is the
// whole cache-affinity contract — and real cell prefixes must actually
// spread across shards.
func TestSamePrefixSameShard(t *testing.T) {
	plan := testPlan(t, 64)
	var hash [32]byte
	copy(hash[:], []byte("stable-trace-hash-for-sharding!!"))
	used := map[int]int{}
	for i := 0; i < plan.Points(); i++ {
		prefix := plan.Cell(i).Key("mh1:test", hash).Prefix()
		first := Shard(prefix, 3)
		for rep := 0; rep < 3; rep++ {
			if got := Shard(prefix, 3); got != first {
				t.Fatalf("Shard(%q, 3) flapped: %d then %d", prefix, first, got)
			}
		}
		if first < 0 || first >= 3 {
			t.Fatalf("Shard(%q, 3) = %d out of range", prefix, first)
		}
		used[first]++
	}
	if len(used) != 3 {
		t.Errorf("64 cells used only shards %v; want all 3", used)
	}
	// Identical cells derive identical keys, hence identical shards.
	a := plan.Cell(7).Key("mh1:test", hash)
	b := plan.Cell(7).Key("mh1:test", hash)
	if a != b {
		t.Errorf("same cell derived different keys: %s vs %s", a, b)
	}
	// Non-hex prefixes still route deterministically.
	if Shard("not-hex!", 5) != Shard("not-hex!", 5) {
		t.Error("non-hex prefix routing is unstable")
	}
}

// Results must merge in plan order however the workers complete: chunks
// run concurrently across three workers, and each worker fills its chunk
// backwards.
func TestDeterministicMergeUnderScrambledCompletion(t *testing.T) {
	plan := testPlan(t, 53)
	execs := []Executor{
		&fakeExec{name: "a", dieAfter: -1},
		&fakeExec{name: "b", dieAfter: -1},
		&fakeExec{name: "c", dieAfter: -1},
	}
	out, st, err := Run(context.Background(), plan, execs, Options{Scale: 0.05, ChunkSize: 4, Inflight: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r == nil {
			t.Fatalf("cell %d missing", i)
		}
		if r.Cycles != int64(i) {
			t.Fatalf("out[%d] carries cell %d's result", i, r.Cycles)
		}
	}
	if st.Completed != int64(plan.Points()) || st.Resharded != 0 || st.Rounds != 1 {
		t.Errorf("stats = completed %d resharded %d rounds %d, want %d/0/1",
			st.Completed, st.Resharded, st.Rounds, plan.Points())
	}
	var sum int64
	for _, w := range st.Workers {
		sum += w.Cells
	}
	if sum != int64(plan.Points()) {
		t.Errorf("worker cell counts sum to %d, want %d", sum, plan.Points())
	}
}

// A worker dying mid-shard must not lose cells: its remainder re-shards
// across the survivors and the sweep completes with every result in
// place.
func TestFailoverReshardsDeadWorkersCells(t *testing.T) {
	plan := testPlan(t, 41)
	dying := &fakeExec{name: "dying", dieAfter: 5}
	healthy := &fakeExec{name: "healthy", dieAfter: -1}
	out, st, err := Run(context.Background(), plan, []Executor{dying, healthy},
		Options{Scale: 0.05, ChunkSize: 4, Inflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r == nil || r.Cycles != int64(i) {
			t.Fatalf("cell %d lost or misplaced after failover: %+v", i, r)
		}
	}
	if st.Resharded == 0 {
		t.Error("no cells recorded as re-sharded despite a worker death")
	}
	if st.Rounds < 2 {
		t.Errorf("rounds = %d, want >= 2", st.Rounds)
	}
	var foundDead bool
	for _, w := range st.Workers {
		if w.Name == "dying" {
			foundDead = true
			if !w.Failed || w.LastError == "" {
				t.Errorf("dying worker not reported failed: %+v", w)
			}
		}
	}
	if !foundDead {
		t.Error("dying worker missing from stats")
	}
}

// When every worker dies the sweep must fail loudly, naming the
// unassigned cells, while still returning what completed.
func TestAllWorkersDead(t *testing.T) {
	plan := testPlan(t, 12)
	out, st, err := Run(context.Background(), plan, []Executor{
		&fakeExec{name: "w1", dieAfter: 2},
		&fakeExec{name: "w2", dieAfter: 2},
	}, Options{Scale: 0.05, ChunkSize: 3, Inflight: 1})
	if err == nil {
		t.Fatal("sweep with every worker dead returned nil error")
	}
	if st.Completed == 0 {
		t.Error("no partial results survived")
	}
	var nonNil int64
	for _, r := range out {
		if r != nil {
			nonNil++
		}
	}
	if nonNil != st.Completed {
		t.Errorf("stats claim %d completed, results hold %d", st.Completed, nonNil)
	}
}

// A permanent executor error (not ErrWorkerDown) must fail only its cells
// and keep the worker in rotation.
func TestPermanentCellErrorsJoin(t *testing.T) {
	plan := testPlan(t, 8)
	permErr := errors.New("bad cell")
	exec := &errOnceExec{err: permErr}
	out, st, err := Run(context.Background(), plan, []Executor{exec},
		Options{Scale: 0.05, ChunkSize: 4, Inflight: 1})
	if !errors.Is(err, permErr) {
		t.Fatalf("joined error lost the permanent cause: %v", err)
	}
	var nonNil int
	for _, r := range out {
		if r != nil {
			nonNil++
		}
	}
	if nonNil != 4 {
		t.Errorf("%d results survived, want the 4 cells of the good chunk", nonNil)
	}
	for _, w := range st.Workers {
		if w.Failed {
			t.Errorf("permanent cell error wrongly killed worker %s", w.Name)
		}
	}
}

// errOnceExec fails its first chunk permanently and serves the rest.
type errOnceExec struct {
	first atomic.Bool
	err   error
}

func (e *errOnceExec) Name() string         { return "erronce" }
func (e *errOnceExec) Stats() ExecutorStats { return ExecutorStats{} }

func (e *errOnceExec) Run(ctx context.Context, cells []Cell) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cells))
	if !e.first.Swap(true) {
		return out, e.err
	}
	for i, c := range cells {
		out[i] = &sim.Result{Cycles: int64(c.Index)}
	}
	return out, nil
}

// Trailers of concurrent chunks are read in any order. A trailer read after
// a newer one must not pull the worker's sweep-window counters back.
func TestRemoteCountersIgnoreStaleTrailers(t *testing.T) {
	r := NewRemote("http://worker.invalid", RemoteOptions{})
	r.noteCounters(10, 4) // no /statsz baseline: the first trailer is it
	r.noteCounters(40, 6)
	r.noteCounters(25, 5) // an older chunk's trailer, read last
	if st := r.Stats(); st.CacheHits != 30 || st.CacheMisses != 2 {
		t.Errorf("hits %d, misses %d; want 30, 2", st.CacheHits, st.CacheMisses)
	}
}
