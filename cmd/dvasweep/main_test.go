package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"decvec"
)

// dvasweep runs the command on args and returns its exit code and output.
func dvasweep(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

var grid = decvec.SweepGridSpec{Programs: []string{"TRFD"}, Archs: []string{"REF", "BYP"}, Latencies: []int64{1, 50}}

// wantDigest is the digest line of grid's results, swept in-process
// through the library.
func wantDigest(t *testing.T) string {
	t.Helper()
	plan, err := decvec.NewSweepPlan(grid)
	if err != nil {
		t.Fatal(err)
	}
	execs := []decvec.SweepExecutor{decvec.LocalExecutor("local", decvec.NewSuite(0.25))}
	results, _, err := decvec.RunSweep(context.Background(), plan, execs, decvec.SweepOptions{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, res := range results {
		if err := decvec.EncodeResult(h, res); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("sha256:%x\n", h.Sum(nil))
}

// The dimension flags, a -grid file, a dvad worker and an in-process run
// over a disk store all print the library's digest; -out holds the hashed
// stream; and the in-process store is GC'd, so a stale temp file left by
// a crashed writer is gone after the run.
func TestDigest(t *testing.T) {
	want := wantDigest(t)
	dims := []string{"-progs", "TRFD", "-archs", "REF,BYP", "-latencies", "1,50", "-scale", "0.25"}

	gridFile := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(gridFile, []byte(`{"programs":["TRFD"],"archs":["REF","BYP"],"latencies":[1,50]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := decvec.NewServer(decvec.ServerConfig{Scale: 0.25})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()
	cacheDir := t.TempDir()
	orphan := filepath.Join(cacheDir, ".put-crashed")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(t.TempDir(), "results.bin")

	for _, args := range [][]string{
		append([]string{"-digest", "-quiet"}, dims...),
		{"-digest", "-quiet", "-grid", gridFile, "-scale", "0.25"},
		append([]string{"-digest", "-quiet", "-workers", ts.URL, "-assert-no-reshard"}, dims...),
		append([]string{"-digest", "-quiet", "-cache-dir", cacheDir, "-out", outFile}, dims...),
	} {
		code, out, errOut := dvasweep(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		if out != want {
			t.Errorf("%v: printed %q, want %q", args, out, want)
		}
	}
	if b, err := os.ReadFile(outFile); err != nil || fmt.Sprintf("sha256:%x\n", sha256.Sum256(b)) != want {
		t.Errorf("-out file does not hash to the digest (%v)", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived the run: %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.dvres")); len(entries) != 4 {
		t.Errorf("store holds %d entries, want the 4 cells", len(entries))
	}
}

func TestSummary(t *testing.T) {
	code, out, errOut := dvasweep(t, "-progs", "TRFD", "-archs", "DVA", "-latencies", "50", "-scale", "0.25", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !bytes.Contains([]byte(out), []byte(`"completed": 1`)) {
		t.Errorf("summary lacks the completed cell:\n%s", out)
	}
	if !bytes.Contains([]byte(errOut), []byte("dvasweep: 100% (1/1)")) {
		t.Errorf("no progress line:\n%s", errOut)
	}
}

// -h exits 0, a bad flag value 2, and a sweep that fails 1.
func TestExitCodes(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-scale", "NaN"}, 2},
		{[]string{"-scale", "-1"}, 2},
		{[]string{"-chunk", "-5"}, 2},
		{[]string{"-inflight", "-1"}, 2},
		{[]string{"-backoff", "-1s"}, 2},
		{[]string{"-grid", "g.json", "-progs", "TRFD"}, 2},
		{[]string{"-latencies", "x"}, 2},
		{[]string{"-loadqs", "-1"}, 2},
		{[]string{"-archs", "XYZ"}, 2},
		{[]string{"-workers", " , "}, 2},
		{[]string{"-progs", "TRFD", "-archs", "DVA", "-latencies", "50", "-scale", "0.25", "-quiet",
			"-workers", dead.URL, "-retries", "1", "-backoff", "1ms"}, 1},
	} {
		if code, _, errOut := dvasweep(t, tc.args...); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut)
		}
	}
}
