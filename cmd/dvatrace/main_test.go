package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decvec"
	"decvec/internal/trace"
)

// dvatrace runs the command on args and returns its exit code and output.
func dvatrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// The statistics printed are those of the scaled trace dumped and written,
// not of the scale-1 trace.
func TestScaledTraceStatistics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trfd.trace")
	code, out, errOut := dvatrace(t, "-prog", "TRFD", "-scale", "0.25", "-dump", "3", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	written, err := decvec.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	if written.Len() != w.Trace(0.25).Len() || written.Len() >= w.Trace(1).Len() {
		t.Errorf("wrote %d instructions; the trace at 0.25 has %d, at 1 %d", written.Len(), w.Trace(0.25).Len(), w.Trace(1).Len())
	}
	st := trace.Collect(written)
	want := fmt.Sprintf("  bbs=%d scalarInsts=%d vectorInsts=%d vectorOps=%d\n",
		st.BasicBlocks, st.ScalarInsts, st.VectorInsts, st.VectorOps)
	if !strings.Contains(out, want) {
		t.Errorf("want the written trace's statistics %q in\n%s", want, out)
	}
	if n := strings.Count(out, "\n    "); n != 3 {
		t.Errorf("dumped %d instructions, want 3:\n%s", n, out)
	}
	if !strings.HasSuffix(out, "  wrote "+path+"\n") {
		t.Errorf("no wrote line:\n%s", out)
	}
}

func TestAll(t *testing.T) {
	code, out, errOut := dvatrace(t, "-all", "-scale", "0.25")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if n := strings.Count(out, "  bbs="); n != len(decvec.Workloads()) {
		t.Errorf("statistics for %d programs, want %d", n, len(decvec.Workloads()))
	}
}

// -h exits 0, a bad flag value 2, and an unknown program 1. -all with -o
// would overwrite one file thirteen times, so it writes nothing.
func TestExitCodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "all.trace")
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{nil, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-all", "-o", out}, 2},
		{[]string{"-prog", "TRFD", "-scale", "NaN"}, 2},
		{[]string{"-prog", "TRFD", "-scale", "0"}, 2},
		{[]string{"-prog", "TRFD", "-dump", "-3"}, 2},
		{[]string{"-prog", "NOPE"}, 1},
	} {
		if code, _, errOut := dvatrace(t, tc.args...); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-all -o created %s: %v", out, err)
	}
}
