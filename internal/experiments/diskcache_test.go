package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"decvec/internal/ooo"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/workload"
)

func diskSuite(t *testing.T, dir string, opts simcache.Options) *Suite {
	t.Helper()
	store, err := simcache.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(testScale)
	s.Disk = store
	return s
}

func TestSuiteWarmDiskCacheSkipsSimulation(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("ARC2D")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []sim.Config{sim.DefaultConfig(1), sim.DefaultConfig(30)}

	cold := diskSuite(t, dir, simcache.Options{})
	var want []*sim.Result
	for _, cfg := range cfgs {
		for _, arch := range []Arch{REF, DVA} {
			r, err := cold.Run(p, arch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	if got := cold.Simulations(); got != 4 {
		t.Fatalf("cold suite ran %d simulations, want 4", got)
	}
	if st := cold.CacheStats(); st.Writes != 4 || st.Hits != 0 {
		t.Fatalf("cold cache stats = %+v", st)
	}

	// A fresh suite over the same directory must satisfy every run from
	// disk: zero simulator invocations, identical results.
	warm := diskSuite(t, dir, simcache.Options{})
	i := 0
	for _, cfg := range cfgs {
		for _, arch := range []Arch{REF, DVA} {
			r, err := warm.Run(p, arch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("%s L=%d: warm result differs from cold", arch, cfg.MemLatency)
			}
			i++
		}
	}
	if got := warm.Simulations(); got != 0 {
		t.Errorf("warm suite ran %d simulations, want 0", got)
	}
	if st := warm.CacheStats(); st.Hits != 4 || st.Misses != 0 {
		t.Errorf("warm cache stats = %+v", st)
	}
}

func TestSuiteSlowTickSharesDiskEntries(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	cold := diskSuite(t, dir, simcache.Options{})
	if _, err := cold.Run(p, DVA, sim.DefaultConfig(30)); err != nil {
		t.Fatal(err)
	}
	// SlowTick is bit-identical and normalized out of the key: a slow-tick
	// suite hits the fast-tick entry.
	warm := diskSuite(t, dir, simcache.Options{})
	warm.SlowTick = true
	if _, err := warm.Run(p, DVA, sim.DefaultConfig(30)); err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Errorf("slow-tick warm suite ran %d simulations, want 0", got)
	}
}

func TestSuiteRunOOODiskCache(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("FLO52")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ooo.DefaultConfig(30)
	cfg.Window = 16
	cfg.PhysRegs = 64

	cold := diskSuite(t, dir, simcache.Options{})
	want, err := cold.RunOOO(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Simulations(); got != 1 {
		t.Fatalf("cold OOO run: %d simulations, want 1", got)
	}

	warm := diskSuite(t, dir, simcache.Options{})
	got, err := warm.RunOOO(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulations() != 0 {
		t.Errorf("warm OOO run simulated")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warm OOO result differs from cold")
	}

	// A different window is a different key, not a stale hit.
	cfg2 := cfg
	cfg2.Window = 64
	if _, err := warm.RunOOO(p, cfg2); err != nil {
		t.Fatal(err)
	}
	if warm.Simulations() != 1 {
		t.Errorf("distinct OOO window did not simulate")
	}
}

func TestSuiteVerifyPassesOnHonestStore(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	cold := diskSuite(t, dir, simcache.Options{})
	if _, err := cold.Run(p, DVA, sim.DefaultConfig(30)); err != nil {
		t.Fatal(err)
	}
	warm := diskSuite(t, dir, simcache.Options{})
	warm.VerifyFraction = 1.0
	if _, err := warm.Run(p, DVA, sim.DefaultConfig(30)); err != nil {
		t.Fatalf("verification failed on an honest store: %v", err)
	}
	// The verification re-simulation counts as a simulation and as Verified.
	if got := warm.Simulations(); got != 1 {
		t.Errorf("verify ran %d simulations, want 1", got)
	}
	if st := warm.CacheStats(); st.Verified != 1 {
		t.Errorf("cache stats = %+v, want 1 verified", st)
	}
}

func TestSuiteVerifyFailsOnTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("SPEC77")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(30)
	store, err := simcache.Open(dir, simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a well-formed entry whose payload no simulator produces: run the
	// real simulation, skew the cycle count, store the skewed result under
	// the honest key. Checksums pass — only re-simulation can catch it.
	honest := NewSuite(testScale)
	r, err := honest.Run(p, DVA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *r
	tampered.Cycles++
	th, err := p.CachedTraceHash(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(store.Key(th, "DVA", cfg, ""), &tampered); err != nil {
		t.Fatal(err)
	}

	s := NewSuite(testScale)
	s.Disk = store
	s.VerifyFraction = 1.0
	_, err = s.Run(p, DVA, cfg)
	if err == nil {
		t.Fatal("verification accepted a tampered entry")
	}
	if !strings.Contains(err.Error(), "cache verification FAILED") {
		t.Errorf("error does not name the failure: %v", err)
	}
	// Without verification the tampered entry is served (the checksum holds),
	// demonstrating the failure -cache-verify exists to catch.
	blind := NewSuite(testScale)
	blind.Disk = store
	got, err := blind.Run(p, DVA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != tampered.Cycles {
		t.Errorf("expected the tampered entry to be served blind")
	}
}

func TestSuiteFingerprintChangeForcesColdRun(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	cold := diskSuite(t, dir, simcache.Options{Fingerprint: "mh1:model-v1"})
	if _, err := cold.Run(p, REF, sim.DefaultConfig(30)); err != nil {
		t.Fatal(err)
	}
	// Same directory, new fingerprint — as after any model-source edit: the
	// old entry must be unreachable and the run must simulate.
	edited := diskSuite(t, dir, simcache.Options{Fingerprint: "mh1:model-v2"})
	if _, err := edited.Run(p, REF, sim.DefaultConfig(30)); err != nil {
		t.Fatal(err)
	}
	if got := edited.Simulations(); got != 1 {
		t.Errorf("edited-model suite ran %d simulations, want 1 (cold)", got)
	}
	if st := edited.CacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("edited-model cache stats = %+v", st)
	}
}

// A run has two forms, its result and its canonical payload, and both
// entries share one flight group. On a cold suite with a store the payload
// is the bytes the store wrote; on a warm one it is the stored payload,
// handed over undecoded, and the result is decoded from it once for every
// caller. Concurrent callers of either form on a disk hit must see one
// disk read and agree byte for byte.
func TestSuiteRunBytesSharesTheRunPath(t *testing.T) {
	dir := t.TempDir()
	p, err := workload.Get("ARC2D")
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Arch: DVA, Cfg: sim.DefaultConfig(30)}
	ctx := context.Background()

	cold := diskSuite(t, dir, simcache.Options{})
	payload, err := cold.RunBytesCtx(ctx, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cold.RunCtx(ctx, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.AppendResult(nil, res)
	if !bytes.Equal(payload, want) {
		t.Fatal("cold RunBytesCtx differs from the encoding of RunCtx's result")
	}
	if n, st := cold.Simulations(), cold.CacheStats(); n != 1 || st.Writes != 1 {
		t.Fatalf("cold suite: %d simulations, %d writes; want 1 and 1", n, st.Writes)
	}

	warm := diskSuite(t, dir, simcache.Options{})
	var wg sync.WaitGroup
	results := make([]*sim.Result, 8)
	payloads := make([][]byte, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				results[i], err = warm.RunCtx(ctx, p, spec)
			} else {
				payloads[i], err = warm.RunBytesCtx(ctx, p, spec)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range results {
		if i%2 == 0 {
			if results[i] != results[0] {
				t.Errorf("caller %d got its own decode of the stored payload", i)
			}
			if !reflect.DeepEqual(results[i], res) {
				t.Errorf("caller %d: warm result differs from cold", i)
			}
		} else if !bytes.Equal(payloads[i], want) {
			t.Errorf("caller %d: warm payload differs from the cold one", i)
		}
	}
	if n, st := warm.Simulations(), warm.CacheStats(); n != 0 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm suite: %d simulations, %d hits, %d misses; want 0, 1, 0", n, st.Hits, st.Misses)
	}
}
