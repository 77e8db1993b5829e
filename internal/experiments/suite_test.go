package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"decvec/internal/ooo"
	"decvec/internal/sim"
	"decvec/internal/workload"
)

// Concurrent calls for the same key must share one simulation, through
// every entry: the pre-singleflight code checked the cache, released the
// lock, simulated and only then stored, so a burst of identical requests
// each ran the simulator.
//
// The run must outlast the scheduler's preemption quantum (~10ms), or on a
// single-CPU machine the first caller finishes before the others wake and
// the race never materializes: use the cycle-stepped DVA and OOO cores at
// full scale.
func TestSuiteRunSingleflight(t *testing.T) {
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(50)
	for _, tc := range []struct {
		entry string
		run   func(*Suite) (*sim.Result, error)
	}{
		{"RunCtx", func(s *Suite) (*sim.Result, error) {
			return s.RunCtx(context.Background(), p, RunSpec{Arch: DVA, Cfg: cfg})
		}},
		{"RunCtxOOO", func(s *Suite) (*sim.Result, error) {
			return s.RunCtx(context.Background(), p, oooSpec(ooo.DefaultConfig(50)))
		}},
		{"RunSourceCtx", func(s *Suite) (*sim.Result, error) {
			return s.RunSourceCtx(context.Background(), p.CachedTrace(1.0), RunSpec{Arch: DVA, Cfg: cfg})
		}},
	} {
		t.Run(tc.entry, func(t *testing.T) {
			s := NewSuite(1.0)
			const callers = 16
			results := make([]*sim.Result, callers)
			start := make(chan struct{}) // release all callers at once
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					r, err := tc.run(s)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = r
				}(i)
			}
			close(start)
			waitWithin(t, 20*time.Second, "the callers' "+tc.entry+" calls (wg.Wait)", wg.Wait)

			if got := s.Simulations(); got != 1 {
				t.Errorf("Simulations() = %d, want 1 for %d identical concurrent calls", got, callers)
			}
			for i, r := range results {
				if r != results[0] {
					t.Errorf("caller %d got a different result object", i)
				}
			}
		})
	}
}

// A workload run and a run of the identical trace through RunSourceCtx are
// one key, so without a disk store the second is a memory hit.
func TestSuiteRunSourceSharesWorkloadRun(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(30)
	want, err := s.Run(p, DVA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunSourceCtx(context.Background(), p.CachedTrace(testScale), RunSpec{Arch: DVA, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("RunSourceCtx of the workload's trace returned a different result object")
	}
	if n := s.Simulations(); n != 1 {
		t.Errorf("Simulations() = %d, want 1", n)
	}
}

// A REF or DVA run with a window or physical-register pool would share a
// disk entry with the run without them; the suite must refuse it instead.
func TestSuiteRejectsOOOParamsOnInOrderCores(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(1)
	for _, j := range []BatchJob{
		{Program: p, RunSpec: RunSpec{Arch: REF, Cfg: cfg, Window: 16}},
		{Program: p, RunSpec: RunSpec{Arch: DVA, Cfg: cfg, PhysRegs: 32}},
	} {
		out, err := s.RunBatch(context.Background(), []BatchJob{j})
		if err == nil || out[0] != nil {
			t.Errorf("%s with window %d, physregs %d: got result %v, err %v; want an error", j.Arch, j.Window, j.PhysRegs, out[0], err)
		}
	}
	if n := s.Simulations(); n != 0 {
		t.Errorf("Simulations() = %d, want 0: a refused run must not simulate", n)
	}
}

// A warmed cell is a map lookup through RunCtx or RunBytesCtx, for REF, DVA
// and OOO alike; dvad answers most requests this way, so it must not
// allocate.
func TestSuiteWarmHitZeroAlloc(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(1)
	specs := []RunSpec{{Arch: REF, Cfg: cfg}, {Arch: DVA, Cfg: cfg}, oooSpec(ooo.DefaultConfig(1))}
	ctx := context.Background()
	for _, spec := range specs {
		if _, err := s.RunCtx(ctx, p, spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range specs {
		hit := func() { _, _ = s.RunCtx(ctx, p, spec) }
		if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
			t.Errorf("warmed %s hit allocated %.1f times per call, want 0", spec.Arch, allocs)
		}
		// The payload form is encoded on its first request, then shared.
		bytesHit := func() { _, _ = s.RunBytesCtx(ctx, p, spec) }
		if allocs := testing.AllocsPerRun(100, bytesHit); allocs != 0 {
			t.Errorf("warmed %s payload hit allocated %.1f times per call, want 0", spec.Arch, allocs)
		}
	}
	if n := s.Simulations(); n != int64(len(specs)) {
		t.Errorf("Simulations() = %d, want %d", n, len(specs))
	}
}

// waitWithin fails the test if wait has not returned within d, naming what
// it waited for. A lock held across the flight wait deadlocks every caller;
// this turns that hang into a prompt failure instead of the package timeout.
func waitWithin(t *testing.T, d time.Duration, what string, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v: deadlock", what, d)
	}
}

// Distinct keys must still simulate independently, and repeats of any key
// stay cached.
func TestSuiteRunCountsDistinctKeys(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, lat := range []int64{1, 10} {
			wg.Add(1)
			go func(lat int64) {
				defer wg.Done()
				if _, err := s.Run(p, REF, sim.DefaultConfig(lat)); err != nil {
					t.Error(err)
				}
			}(lat)
		}
	}
	wg.Wait()

	if got := s.Simulations(); got != 2 {
		t.Errorf("Simulations() = %d, want 2 (one per distinct config)", got)
	}
	// A sequential repeat hits the cache.
	if _, err := s.Run(p, REF, sim.DefaultConfig(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Simulations(); got != 2 {
		t.Errorf("Simulations() = %d after cached repeat, want 2", got)
	}
}

// Errors must not be cached, and a failed flight must not wedge later calls.
func TestSuiteRunErrorNotCached(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(10)

	if _, err := s.Run(p, Arch("BOGUS"), cfg); err == nil {
		t.Fatal("want error for unknown architecture")
	}
	if _, err := s.Run(p, Arch("BOGUS"), cfg); err == nil {
		t.Fatal("want error again (errors are retried, not cached)")
	}
	if got := s.Simulations(); got != 2 {
		t.Errorf("Simulations() = %d, want 2 (failed attempts are attempts)", got)
	}
	// The suite still works for valid keys afterwards.
	if _, err := s.Run(p, REF, cfg); err != nil {
		t.Fatal(err)
	}
}

// Ideal shares the same singleflight discipline.
func TestSuiteIdealSingleflight(t *testing.T) {
	s := suite(t)
	p := workload.Simulated()[0]

	const callers = 8
	bounds := make([]int64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bounds[i] = s.Ideal(context.Background(), p).Cycles
		}(i)
	}
	wg.Wait()
	for i, b := range bounds {
		if b != bounds[0] {
			t.Errorf("caller %d got bound %d, want %d", i, b, bounds[0])
		}
	}
}
