package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchOutput renders a synthetic `go test -bench` output: one line per pair
// for every figure benchmark, ns/op from ns (by pair, 1 ms when nil) and
// allocs/op from allocs (1000 when absent), and one Codec line per pair.
func benchOutput(ns map[string][]float64, allocs map[string]float64, pairs int) string {
	var b strings.Builder
	b.WriteString("goos: linux\n")
	for k := 0; k < pairs; k++ {
		for _, n := range figures {
			v, a := 1e6, 1000.0
			if ns[n] != nil {
				v = ns[n][k]
			}
			if x, ok := allocs[n]; ok {
				a = x
			}
			fmt.Fprintf(&b, "Benchmark%s-2   1   %.0f ns/op   100 B/op   %.0f allocs/op   12.00 sims/op\n", n, v, a)
		}
		fmt.Fprintf(&b, "BenchmarkCodec-2   1   %d ns/op\n", 900+k)
	}
	b.WriteString("PASS\n")
	return b.String()
}

func writeFile(t *testing.T, dir, name, s string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// Figure3's five pairs give the speedups 2, 1, 0.5, 4 and 1: the paired
// median is 1 and the exclusive quartiles 0.75 and 3, although the ratio of
// the per-side medians (2 ms ÷ 1 ms) is 2. Every other benchmark is
// unchanged, so the geomean is 1.
func TestReport(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", benchOutput(map[string][]float64{"Figure3": {2e6, 3e6, 1e6, 4e6, 1e6}}, nil, 5))
	head := writeFile(t, dir, "head.txt", benchOutput(map[string][]float64{"Figure3": {1e6, 3e6, 2e6, 1e6, 1e6}}, nil, 5))
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-base", base, "-head", head, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rep := readReport(t, out)
	if rep.FigureGeomeanSpeedup != 1 || !reflect.DeepEqual(rep.Figures, figures) {
		t.Errorf("geomean %v over %v; want 1 over %v", rep.FigureGeomeanSpeedup, rep.Figures, figures)
	}
	want := entry{
		Base:    result{"ns/op": 2e6, "B/op": 100, "allocs/op": 1000, "sims/op": 12},
		Head:    result{"ns/op": 1e6, "B/op": 100, "allocs/op": 1000, "sims/op": 12},
		Speedup: 1, SpeedupQ1: 0.75, SpeedupQ3: 3,
	}
	if got := rep.Benchmarks["Figure3"]; !reflect.DeepEqual(got, want) {
		t.Errorf("Figure3 %+v, want %+v", got, want)
	}
	if got := rep.Benchmarks["Codec"]; got.Speedup != 1 || got.Base["ns/op"] != 902 {
		t.Errorf("Codec %+v; want speedup 1 and base median 902 ns/op", got)
	}
	if !strings.Contains(stdout.String(), "Figure3  1.000x [0.750, 3.000]  allocs/op 1000 -> 1000\n") ||
		!strings.HasSuffix(stdout.String(), "benchjson: "+out+" (figure geomean 1.000x over 7 benchmarks)\n") {
		t.Errorf("stdout %q", stdout.String())
	}
}

// The gate: the figure geomean fails at 0.949 and passes at 0.95, and a
// figure's median allocs/op fails at 2.1% up and passes at 2%. A failed
// gate still writes the report.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	slow := func(ns float64) map[string][]float64 {
		m := make(map[string][]float64)
		for _, n := range figures {
			m[n] = []float64{ns, ns, ns}
		}
		return m
	}
	base := writeFile(t, dir, "base.txt", benchOutput(nil, nil, 3))
	for _, c := range []struct {
		name   string
		ns     float64
		allocs float64
		want   int
		msg    string
	}{
		{"floor passes at 0.95", 1e9 / 950, 1000, 0, ""},
		{"floor fails at 0.949", 1e9 / 949, 1000, 1, "figure geomean 0.949x below floor 0.95x"},
		{"allocs pass at +2%", 1e6, 1020, 0, ""},
		{"allocs fail at +2.1%", 1e6, 1021, 1, "Figure7 allocs/op 1000 -> 1021, more than 2% up"},
	} {
		t.Run(c.name, func(t *testing.T) {
			head := writeFile(t, t.TempDir(), "head.txt", benchOutput(slow(c.ns), map[string]float64{"Figure7": c.allocs}, 3))
			out := filepath.Join(t.TempDir(), "report.json")
			var stderr bytes.Buffer
			if code := run([]string{"-base", base, "-head", head, "-out", out}, &bytes.Buffer{}, &stderr); code != c.want || !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("exit %d, stderr %q; want %d and %q", code, stderr.String(), c.want, c.msg)
			}
			readReport(t, out)
		})
	}
}

// -h exits 0 and a bad or missing flag 2. Input that cannot be paired exits
// 1 naming the benchmark: a figure missing on either side, a benchmark with
// a different line count on the two sides, a line that does not parse, and
// an unreadable file.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := benchOutput(nil, nil, 3)
	base := writeFile(t, dir, "base.txt", good)
	out := filepath.Join(dir, "report.json")
	noFig8 := writeFile(t, dir, "nofig8.txt", strings.ReplaceAll(good, "BenchmarkFigure8-2", "--- FAIL: BenchmarkFigure8-2"))
	shortCodec := writeFile(t, dir, "short.txt", strings.Replace(good, "BenchmarkCodec-2   1   900 ns/op\n", "", 1))
	for _, c := range []struct {
		args []string
		want int
		msg  string
	}{
		{[]string{"-h"}, 0, ""},
		{[]string{"-bogus"}, 2, ""},
		{[]string{"-head", base, "-out", out}, 2, "-base is required"},
		{[]string{"-base", base, "-out", out}, 2, "-head is required"},
		{[]string{"-base", base, "-head", base}, 2, "-out is required"},
		{[]string{"-base", base, "-head", noFig8, "-out", out}, 1, "benchmark Figure8: 3 lines in base, 0 in head"},
		{[]string{"-base", noFig8, "-head", base, "-out", out}, 1, "benchmark Figure8: 0 lines in base, 3 in head"},
		{[]string{"-base", base, "-head", shortCodec, "-out", out}, 1, "benchmark Codec: 3 lines in base, 2 in head"},
		{[]string{"-base", base, "-head", writeFile(t, dir, "bad1.txt", "BenchmarkFigure3 1 fast ns/op\n"), "-out", out}, 1, "benchmark Figure3: cannot parse"},
		{[]string{"-base", base, "-head", writeFile(t, dir, "bad2.txt", "BenchmarkFigure5-2\n"), "-out", out}, 1, "benchmark Figure5: cannot parse"},
		{[]string{"-base", base, "-head", writeFile(t, dir, "bad3.txt", "BenchmarkFigure6 1 900 B/op\n"), "-out", out}, 1, "benchmark Figure6: cannot parse"},
		{[]string{"-base", filepath.Join(dir, "missing.txt"), "-head", base, "-out", out}, 1, "missing.txt"},
	} {
		var stderr bytes.Buffer
		if code := run(c.args, &bytes.Buffer{}, &stderr); code != c.want || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: exit %d, stderr %q; want %d and %q", c.args, code, stderr.String(), c.want, c.msg)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("input that cannot be paired wrote a report")
	}
}
