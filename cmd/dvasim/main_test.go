package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decvec"
)

// dvasim runs the command on args and returns its exit code and output.
func dvasim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunNamesREF(t *testing.T) {
	code, out, errOut := dvasim(t, "-prog", "TRFD", "-arch", "REF", "-cache=off")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"TRFD on REF (", "  config:        REF L=50\n", "  cycles:        "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// -metrics-json - prints exactly the report package's JSON of the run, and
// a zero queue size takes the default, as it does in a dvad request.
func TestMetricsJSONIsTheReport(t *testing.T) {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := decvec.RunSource(w.Trace(1), "BYP", decvec.DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := decvec.MetricsJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-prog", "TRFD", "-arch", "byp", "-cache=off", "-metrics-json", "-"},
		{"-prog", "TRFD", "-arch", "BYP", "-cache=off", "-metrics-json", "-", "-loadq", "0", "-storeq", "0", "-iq", "0"},
	} {
		code, out, errOut := dvasim(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		if out != string(want)+"\n" {
			t.Errorf("%v: stdout\n%s\nwant\n%s", args, out, want)
		}
	}
}

// A cold cached run writes the store; the warm run answers the same cycles
// from it, with every hit re-simulated and verified.
func TestCachedRunVerifies(t *testing.T) {
	dir := t.TempDir()
	type metrics struct {
		Cycles int64
		Cache  struct{ Hits, Writes, Verified int64 }
	}
	var m [2]metrics
	for i, verify := range []string{"0", "1"} {
		code, out, errOut := dvasim(t, "-prog", "TRFD", "-cache-dir", dir, "-cache-verify", verify, "-metrics-json", "-")
		if code != 0 {
			t.Fatalf("-cache-verify %s: exit %d: %s", verify, code, errOut)
		}
		if err := json.Unmarshal([]byte(out), &m[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m[0].Cycles != m[1].Cycles || m[0].Cache.Writes != 1 || m[1].Cache.Hits != 1 || m[1].Cache.Verified != 1 {
		t.Errorf("cold %+v, warm %+v", m[0], m[1])
	}
}

func TestEventsTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.json")
	code, out, errOut := dvasim(t, "-prog", "TRFD", "-events", path, "-max-events", "10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "events dropped at -max-events 10") {
		t.Errorf("no truncation notice:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tef struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tef); err != nil || len(tef.TraceEvents) == 0 {
		t.Errorf("event file: %d events, %v", len(tef.TraceEvents), err)
	}
}

// -h exits 0, every bad flag value 2, and a run that fails 1.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-arch", "XYZ"}, 2},
		{[]string{"-loadq", "-1"}, 2},
		{[]string{"-jitter", "-1"}, 2},
		{[]string{"-latency", "0"}, 2},
		{[]string{"-iq", "1"}, 2},
		{[]string{"-max-events", "-5", "-events", "-"}, 2},
		{[]string{"-cache-verify", "NaN"}, 2},
		{[]string{"-cache-max-mb", "-1"}, 2},
		{[]string{"-prog", "NOPE", "-cache=off"}, 1},
		{[]string{"-i", filepath.Join(t.TempDir(), "missing.trace"), "-cache=off"}, 1},
	} {
		if code, _, errOut := dvasim(t, tc.args...); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errOut)
		}
	}
}
