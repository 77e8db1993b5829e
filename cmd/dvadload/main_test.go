package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"decvec"
)

// dvad serves a fresh daemon at scale 0.25 for the test's lifetime.
func dvad(t *testing.T) string {
	t.Helper()
	srv := decvec.NewServer(decvec.ServerConfig{Scale: 0.25})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return ts.URL
}

// dvadload runs the command on args and returns its exit code and output.
func dvadload(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// An identical storm passes -assert-coalesce; a -mix storm answers every
// one of its distinct requests.
func TestStorms(t *testing.T) {
	url := dvad(t)
	code, out, errOut := dvadload(t, "-url", url, "-n", "8", "-c", "4", "-prog", "TRFD", "-assert-coalesce")
	if code != 0 {
		t.Fatalf("identical storm: exit %d: %s\n%s", code, errOut, out)
	}
	for _, want := range []string{"  ok: 8\n", "  coalescing: 8 requests served by 1 simulations", "assert-coalesce: PASS (8 requests, 1 simulation(s))"} {
		if !strings.Contains(out, want) {
			t.Errorf("identical storm output lacks %q:\n%s", want, out)
		}
	}
	code, out, errOut = dvadload(t, "-url", url, "-n", "11", "-c", "3", "-prog", "TRFD", "-mix")
	if code != 0 {
		t.Fatalf("-mix storm: exit %d: %s\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "  ok: 11\n") || !strings.Contains(out, "served by 10 simulations") {
		t.Errorf("-mix storm: want 11 answers from 10 new simulations:\n%s", out)
	}
}

// -h exits 0, a bad flag value 2, and an unreachable or failing daemon 1.
func TestExitCodes(t *testing.T) {
	url := dvad(t)
	dead := httptest.NewServer(nil)
	dead.Close()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-n", "0"}, 2},
		{[]string{"-c", "-1"}, 2},
		{[]string{"-mix", "-assert-coalesce"}, 2},
		{[]string{"-url", dead.URL}, 1},
		{[]string{"-url", url, "-n", "2", "-c", "2", "-prog", "NOPE", "-assert-coalesce"}, 1},
	} {
		if code, _, errOut := dvadload(t, tc.args...); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut)
		}
	}
}
