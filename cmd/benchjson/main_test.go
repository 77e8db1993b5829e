package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Two synthetic bench outputs: Figure3 runs three times on each side (its
// medians 2 ms → 1 ms, a 2x speedup) and Figure8 once (no change); Codec
// is not a figure and stays out of the geomean.
const (
	baselineBench = `goos: linux
BenchmarkFigure3-2   1   3000000 ns/op   120 B/op   10 allocs/op   12.00 sims/op
BenchmarkFigure3-2   1   2000000 ns/op   100 B/op   10 allocs/op   12.00 sims/op
BenchmarkFigure3-2   1   1000000 ns/op   110 B/op   10 allocs/op   12.00 sims/op
BenchmarkFigure8-2   1   4000000 ns/op
BenchmarkCodec       1   900 ns/op
PASS
`
	currentBench = `BenchmarkFigure3-8   1   1000000 ns/op   100 B/op   9 allocs/op   12.00 sims/op
BenchmarkFigure3-8   1   1100000 ns/op   100 B/op   9 allocs/op   12.00 sims/op
BenchmarkFigure3-8   1    900000 ns/op   100 B/op   9 allocs/op   12.00 sims/op
BenchmarkFigure8-8   1   4000000 ns/op
BenchmarkCodec-8     1   300 ns/op
`
)

func benchFiles(t *testing.T) (dir, baseline, current string) {
	t.Helper()
	dir = t.TempDir()
	baseline, current = filepath.Join(dir, "base.txt"), filepath.Join(dir, "cur.txt")
	for path, s := range map[string]string{baseline: baselineBench, current: currentBench} {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, baseline, current
}

func TestReport(t *testing.T) {
	dir, baseline, current := benchFiles(t)
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", baseline, "-current", current, "-out", out, "-min-geomean", "1.2", "-notes", "n"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.FigureGeomeanSpeedup != 1.414 || !reflect.DeepEqual(rep.Figures, []string{"Figure3", "Figure8"}) || rep.Notes != "n" {
		t.Errorf("geomean %v over %v, notes %q; want 1.414 over [Figure3 Figure8], %q", rep.FigureGeomeanSpeedup, rep.Figures, rep.Notes, "n")
	}
	fig3 := rep.Benchmarks["Figure3"]
	wantBase := result{"ns/op": 2000000, "B/op": 110, "allocs/op": 10, "sims/op": 12}
	if !reflect.DeepEqual(fig3.Baseline, wantBase) || fig3.Current["ns/op"] != 1000000 || fig3.Speedup != 2 {
		t.Errorf("Figure3 %+v; want the per-metric medians %v → 1 ms, speedup 2", fig3, wantBase)
	}
	if s := rep.Benchmarks["Codec"].Speedup; s != 3 {
		t.Errorf("Codec speedup %v, want 3", s)
	}
	if want := "benchjson: " + out + " (figure geomean 1.414x over 2 benchmarks)\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}

// -h exits 0, a missing or bad flag 2; a gate miss or unreadable input 1,
// and a gate miss still writes the report.
func TestExitCodes(t *testing.T) {
	dir, baseline, current := benchFiles(t)
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("BenchmarkFigure3 1 fast ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gated := filepath.Join(dir, "gated.json")
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-baseline", baseline, "-current", current}, 2},
		{[]string{"-baseline", baseline, "-current", current, "-out", gated, "-min-geomean", "1.5"}, 1},
		{[]string{"-baseline", baseline, "-current", bad, "-out", filepath.Join(dir, "x.json")}, 1},
		{[]string{"-baseline", filepath.Join(dir, "missing.txt"), "-current", current, "-out", filepath.Join(dir, "y.json")}, 1},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &bytes.Buffer{}, &stderr); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, stderr.String())
		}
	}
	if _, err := os.Stat(gated); err != nil {
		t.Errorf("the gated run wrote no report: %v", err)
	}
}
