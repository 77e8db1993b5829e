package decvec_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"decvec"
	"decvec/internal/experiments"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// cacheSuite returns a fresh suite backed by a store at dir, as dvabench
// builds one.
func cacheSuite(t *testing.T, dir string) *decvec.Suite {
	t.Helper()
	store, err := decvec.OpenCache(dir, decvec.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := decvec.NewSuite(benchScale)
	s.Disk = store
	return s
}

// TestCacheEndToEnd is the PR's acceptance property at the facade level: a
// warm cache serves a repeat experiment run with zero simulator invocations
// and byte-identical reports, and a full verification pass agrees with the
// store.
func TestCacheEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several experiment grids")
	}
	dir := t.TempDir()
	exps := []string{"table1", "fig3", "fig8", "ablation-qmov"}

	cold := cacheSuite(t, dir)
	want := make(map[string]string)
	for _, name := range exps {
		out, err := decvec.RunExperimentCtx(context.Background(), cold, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = out
	}
	if cold.Simulations() == 0 {
		t.Fatal("cold run performed no simulations")
	}

	warm := cacheSuite(t, dir)
	for _, name := range exps {
		out, err := decvec.RunExperimentCtx(context.Background(), warm, name)
		if err != nil {
			t.Fatal(err)
		}
		if out != want[name] {
			t.Errorf("%s: warm report differs from cold", name)
		}
	}
	if got := warm.Simulations(); got != 0 {
		t.Errorf("warm run performed %d simulations, want 0", got)
	}

	audit := cacheSuite(t, dir)
	audit.VerifyFraction = 1.0
	for _, name := range exps {
		if _, err := decvec.RunExperimentCtx(context.Background(), audit, name); err != nil {
			t.Fatalf("%s: full cache verification failed: %v", name, err)
		}
	}
	if st := audit.CacheStats(); st.Verified == 0 {
		t.Error("full verification audited no hits")
	}
}

// TestRunSourceCached pins the dvasim-facing cache path, including the
// BYP → DVA+Bypass key canonicalization.
func TestRunSourceCached(t *testing.T) {
	dir := t.TempDir()
	store, err := decvec.OpenCache(dir, decvec.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace(benchScale)
	cfg := decvec.DefaultConfig(30)

	cold, err := decvec.RunSourceCached(store, src, "BYP", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Writes != 1 {
		t.Fatalf("cold stats = %+v", st)
	}
	// The equivalent DVA+Bypass spelling hits the same entry.
	bypCfg := cfg
	bypCfg.Bypass = true
	warm, err := decvec.RunSourceCached(store, src, "DVA", bypCfg, 1.0)
	if err != nil {
		t.Fatalf("verified warm run failed: %v", err)
	}
	if warm.Cycles != cold.Cycles {
		t.Errorf("warm cycles %d != cold cycles %d", warm.Cycles, cold.Cycles)
	}
	if st := store.Stats(); st.Hits != 1 || st.Verified != 1 {
		t.Errorf("warm stats = %+v, want 1 hit / 1 verified", st)
	}
}

// TestRunSourceCachedSharesSuiteEntries pins that dvasim and dvabench share
// cache entries: a workload run the Suite stored as DVA+Bypass is a hit for
// RunSourceCached on the same trace spelled "byp".
func TestRunSourceCachedSharesSuiteEntries(t *testing.T) {
	store, err := decvec.OpenCache(t.TempDir(), decvec.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Get("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := decvec.DefaultConfig(30)
	bypCfg := cfg
	bypCfg.Bypass = true
	s := decvec.NewSuite(1)
	s.Disk = store
	want, err := s.RunCtx(context.Background(), p, experiments.DVA, bypCfg)
	if err != nil {
		t.Fatal(err)
	}

	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	got, err := decvec.RunSourceCached(store, w.Trace(1), "byp", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Writes != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want the Suite's write hit by RunSourceCached", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("cached result differs from the Suite's run")
	}
}

// TestRunSourceCachedVerifyDetectsTamper pins that RunSourceCached's verify
// fraction audits hits: a stored result no model produces fails loudly.
func TestRunSourceCachedVerifyDetectsTamper(t *testing.T) {
	store, err := decvec.OpenCache(t.TempDir(), decvec.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace(benchScale)
	cfg := decvec.DefaultConfig(30)
	r, err := decvec.RunSource(src, "DVA", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *r
	tampered.Cycles++
	th, err := trace.Hash(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(store.Key(th, "DVA", cfg, ""), &tampered); err != nil {
		t.Fatal(err)
	}

	if _, err := decvec.RunSourceCached(store, src, "DVA", cfg, 1); err == nil || !strings.Contains(err.Error(), "cache verification FAILED") {
		t.Fatalf("verified run of a tampered entry: err = %v, want cache verification FAILED", err)
	}
	// Unverified, the checksummed entry is served as stored.
	blind, err := decvec.RunSourceCached(store, src, "DVA", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Cycles != tampered.Cycles {
		t.Errorf("blind cycles = %d, want the tampered %d", blind.Cycles, tampered.Cycles)
	}
}

// TestRunSourceArchAnyCase pins that architecture names resolve in any
// letter case: a mixed-case spelling runs the same machine as the
// upper-case name through RunSource, and hits the entry the upper-case
// name wrote through RunSourceCached.
func TestRunSourceArchAnyCase(t *testing.T) {
	store, err := decvec.OpenCache(t.TempDir(), decvec.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace(benchScale)
	cfg := decvec.DefaultConfig(30)

	for i, c := range []struct{ upper, mixed string }{
		{"DVA", "Dva"}, {"BYP", "byp"}, {"REF", "ReF"},
	} {
		want, err := decvec.RunSource(src, c.upper, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decvec.RunSource(src, c.mixed, cfg)
		if err != nil {
			t.Fatalf("RunSource(%q): %v", c.mixed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunSource(%q) differs from RunSource(%q)", c.mixed, c.upper)
		}

		if _, err := decvec.RunSourceCached(store, src, c.upper, cfg, 0); err != nil {
			t.Fatal(err)
		}
		cached, err := decvec.RunSourceCached(store, src, c.mixed, cfg, 0)
		if err != nil {
			t.Fatalf("RunSourceCached(%q): %v", c.mixed, err)
		}
		if st := store.Stats(); st.Writes != int64(i+1) || st.Hits != int64(i+1) {
			t.Errorf("%s: stats = %+v, want %d writes and %d hits: %q must share %q's key",
				c.mixed, st, i+1, i+1, c.mixed, c.upper)
		}
		if cached.Arch != want.Arch || cached.Cycles != want.Cycles {
			t.Errorf("cached %q = %s/%d cycles, want %s/%d", c.mixed, cached.Arch, cached.Cycles, want.Arch, want.Cycles)
		}
	}
}
