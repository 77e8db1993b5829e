package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// Concurrent Run calls for the same key must share one simulation: the
// pre-singleflight code checked the cache, released the lock, simulated and
// only then stored, so a burst of identical requests each ran the simulator.
//
// The run must outlast the scheduler's preemption quantum (~10ms), or on a
// single-CPU machine the first caller finishes before the others wake and
// the race never materializes: use the cycle-stepped DVA at full scale.
func TestSuiteRunSingleflight(t *testing.T) {
	s := NewSuite(1.0)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(50)

	const callers = 16
	results := make([]*sim.Result, callers)
	start := make(chan struct{}) // release all callers at once
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := s.Run(p, DVA, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	close(start)
	waitWithin(t, 20*time.Second, "the callers' Run calls (wg.Wait)", wg.Wait)

	if got := s.Simulations(); got != 1 {
		t.Errorf("Simulations() = %d, want 1 for %d identical concurrent calls", got, callers)
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("caller %d got a different result object", i)
		}
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
