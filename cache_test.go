package decvec_test

import (
	"context"
	"reflect"
	"testing"

	"decvec"
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

// TestRunSourceArchAnyCase pins that architecture names resolve in any
// letter case: a mixed-case spelling runs the same machine as the
// upper-case name through RunSource. (dvasim's TestSimulateArchAnyCase pins
// that the spellings share a cache entry too.)
func TestRunSourceArchAnyCase(t *testing.T) {
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace(benchScale)
	cfg := decvec.DefaultConfig(30)

	for _, c := range []struct{ upper, mixed string }{
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
	}
}
