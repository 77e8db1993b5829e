package main

import (
	"bytes"
	"strings"
	"testing"

	"decvec/internal/sim"
)

// -check finds the checked-in fingerprint fresh. The test never runs the
// writing mode, which would rewrite a source file of the tree.
func TestCheck(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-check"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := "modelhash: " + genFile + " is fresh (" + sim.ModelFingerprint + ")\n"
	if out.String() != want {
		t.Errorf("stdout %q, want %q", out.String(), want)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
	} {
		var errOut bytes.Buffer
		if code := run(tc.args, &bytes.Buffer{}, &errOut); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut.String())
		}
		if !strings.Contains(errOut.String(), "-check") {
			t.Errorf("%v: no usage on stderr: %s", tc.args, errOut.String())
		}
	}
}
