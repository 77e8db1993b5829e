package decvec

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseCacheFlags registers the cache flags on a fresh set and parses args.
func parseCacheFlags(t *testing.T, args ...string) *CacheFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCacheFlags(fs, "enforced after the run")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{nil, ""},
		{[]string{"-cache-max-mb", "0", "-cache-verify", "1"}, ""},
		{[]string{"-cache-max-mb", "-1"}, "-cache-max-mb must be >= 0"},
		{[]string{"-cache-verify", "1.5"}, "-cache-verify must be a fraction in [0, 1]"},
		{[]string{"-cache-verify", "-0.1"}, "-cache-verify must be a fraction in [0, 1]"},
		{[]string{"-cache-verify", "NaN"}, "-cache-verify must be a fraction in [0, 1], got NaN"},
	} {
		err := parseCacheFlags(t, tc.args...).Validate()
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: Validate() = %v, want %q", tc.args, err, tc.wantErr)
		}
	}

	if s := parseCacheFlags(t, "-cache=off", "-cache-dir", t.TempDir()).Open(io.Discard, "test"); s != nil {
		t.Errorf("-cache=off opened %s", s.Dir())
	}
	dir := t.TempDir()
	if s := parseCacheFlags(t, "-cache-dir", dir).Open(io.Discard, "test"); s == nil || s.Dir() != dir {
		t.Errorf("-cache-dir %s opened %v", dir, s)
	}

	for _, tc := range []struct {
		maxMB string
		want  int64
	}{{"0", -1}, {"1", 1 << 20}, {"512", 512 << 20}} {
		if got := parseCacheFlags(t, "-cache-max-mb", tc.maxMB).options().MaxBytes; got != tc.want {
			t.Errorf("-cache-max-mb %s: MaxBytes %d, want %d", tc.maxMB, got, tc.want)
		}
	}
}

func TestCheckScale(t *testing.T) {
	for _, s := range []float64{1, 0.25, 1e-3} {
		if err := CheckScale(s); err != nil {
			t.Errorf("CheckScale(%v) = %v", s, err)
		}
	}
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckScale(s); err == nil {
			t.Errorf("CheckScale(%v) accepted it", s)
		}
	}
}

// Every command has tests of its own, so none ships untested. cmd/dvaperf
// is a module of its own with its own tests, which ./... does not reach.
func TestEveryCommandHasTests(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == "dvaperf" {
			continue
		}
		tests, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 {
			t.Errorf("cmd/%s has no _test.go file", d.Name())
		}
	}
}
