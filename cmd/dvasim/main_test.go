package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"decvec"
	"decvec/internal/experiments"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// testScale keeps the cached-path tests' traces small.
const testScale = 0.25

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

// resolve is dvasim's resolution of an architecture at latency 30.
func resolve(t *testing.T, arch string, bypass bool) experiments.RunSpec {
	t.Helper()
	spec, err := experiments.RunParams{Arch: arch, Latency: 30, Bypass: bypass}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// openStore opens an empty result cache.
func openStore(t *testing.T) *decvec.CacheStore {
	t.Helper()
	store, err := decvec.OpenCache(t.TempDir(), decvec.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// dyfesm returns the DYFESM trace at the test scale.
func dyfesm(t *testing.T) decvec.TraceSource {
	t.Helper()
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	return w.Trace(testScale)
}

// TestSimulateCached pins dvasim's cached path, including the BYP →
// DVA+Bypass key canonicalization: -arch BYP writes the entry that -arch
// DVA with the bypass bit hits, verified.
func TestSimulateCached(t *testing.T) {
	store := openStore(t)
	src := dyfesm(t)
	cold, err := simulate(src, resolve(t, "BYP", false), store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Writes != 1 {
		t.Fatalf("cold stats = %+v", st)
	}
	warm, err := simulate(src, resolve(t, "DVA", true), store, 1, nil)
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

// TestSimulateSharesSuiteEntries pins that dvasim and dvabench share cache
// entries: a workload run the Suite stored as DVA+Bypass is a hit for
// dvasim's cached path on the same trace spelled "byp".
func TestSimulateSharesSuiteEntries(t *testing.T) {
	store := openStore(t)
	p, err := workload.Get("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite(1)
	s.Disk = store
	want, err := s.RunCtx(context.Background(), p, resolve(t, "DVA", true))
	if err != nil {
		t.Fatal(err)
	}

	got, err := simulate(p.CachedTrace(1), resolve(t, "byp", false), store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Writes != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want the Suite's write hit by dvasim", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("cached result differs from the Suite's run")
	}
}

// TestSimulateVerifyDetectsTamper pins that -cache-verify audits hits: a
// stored result no model produces fails loudly.
func TestSimulateVerifyDetectsTamper(t *testing.T) {
	store := openStore(t)
	src := dyfesm(t)
	spec := resolve(t, "DVA", false)
	r, err := simulate(src, spec, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *r
	tampered.Cycles++
	th, err := trace.Hash(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(spec.Key(store.Fingerprint(), th), &tampered); err != nil {
		t.Fatal(err)
	}

	if _, err := simulate(src, spec, store, 1, nil); err == nil || !strings.Contains(err.Error(), "cache verification FAILED") {
		t.Fatalf("verified run of a tampered entry: err = %v, want cache verification FAILED", err)
	}
	// Unverified, the checksummed entry is served as stored.
	blind, err := simulate(src, spec, store, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Cycles != tampered.Cycles {
		t.Errorf("blind cycles = %d, want the tampered %d", blind.Cycles, tampered.Cycles)
	}
}

// TestSimulateArchAnyCase pins that a mixed-case architecture hits the
// entry the upper-case name wrote, and answers its machine's result.
func TestSimulateArchAnyCase(t *testing.T) {
	store := openStore(t)
	src := dyfesm(t)
	for i, c := range []struct{ upper, mixed string }{
		{"DVA", "Dva"}, {"BYP", "byp"}, {"REF", "ReF"},
	} {
		want, err := simulate(src, resolve(t, c.upper, false), store, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := simulate(src, resolve(t, c.mixed, false), store, 0, nil)
		if err != nil {
			t.Fatalf("%q: %v", c.mixed, err)
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
