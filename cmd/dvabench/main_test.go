package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decvec"
)

// dvabench runs the command on args and returns its exit code and output.
func dvabench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// The printed and written report is RunExperimentCtx's, profiles are
// written beside it, and a warm rerun over the same store simulates
// nothing.
func TestFig8IsTheExperiment(t *testing.T) {
	want, err := decvec.RunExperimentCtx(context.Background(), decvec.NewSuite(0.25), "fig8")
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	cpu, mem := filepath.Join(outDir, "cpu.pprof"), filepath.Join(outDir, "mem.pprof")
	code, out, errOut := dvabench(t, "-exp", "fig8", "-scale", "0.25", "-q", "-cache=off", "-out", outDir,
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if out != "==== fig8 ====\n"+want+"\n" {
		t.Errorf("stdout\n%s\nwant the report\n%s", out, want)
	}
	if b, err := os.ReadFile(filepath.Join(outDir, "fig8.txt")); err != nil || string(b) != want {
		t.Errorf("-out file: %v\n%s", err, b)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v", path, err)
		}
	}

	cacheDir := t.TempDir()
	for _, wantSims := range []string{"(simulations run: 12,", "(simulations run: 0,"} {
		code, out, errOut := dvabench(t, "-exp", "fig8", "-scale", "0.25", "-cache-dir", cacheDir)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut)
		}
		if !strings.Contains(out, wantSims) {
			t.Errorf("want %q in\n%s", wantSims, out)
		}
	}
}

// -h exits 0 and every bad flag value 2, before any experiment runs.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-exp", "fig8,nope"}, 2},
		{[]string{"-exp", " , "}, 2},
		{[]string{"-exp", "fig8", "-scale", "NaN"}, 2},
		{[]string{"-exp", "fig8", "-scale", "0"}, 2},
		{[]string{"-exp", "fig8", "-scale", "-1"}, 2},
		{[]string{"-exp", "fig8", "-scale", "+Inf"}, 2},
		{[]string{"-exp", "fig8", "-cache-verify", "2"}, 2},
	} {
		code, out, errOut := dvabench(t, tc.args...)
		if code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut)
		}
		if out != "" {
			t.Errorf("%v: ran experiments:\n%s", tc.args, out)
		}
	}
}
