// Command benchjson is the performance gate's arithmetic. It reads the
// `go test -bench` outputs of a base and a head binary that bench/gate.sh ran
// in interleaved pairs on one box, pairs the k-th line of each benchmark on
// one side with its k-th line on the other, and writes a JSON report: per
// benchmark, each side's per-metric medians and the median and quartiles of
// the paired speedups (base ns/op ÷ head ns/op), then the geometric mean of
// the paper-figure benchmarks' median speedups.
//
// The report is always written; the run then exits 1 if the figure geomean
// is below minGeomean or a figure benchmark's median allocs/op grew by more
// than maxAllocGrowth. Input that cannot be paired exits 1 naming the
// benchmark: a figure benchmark missing on a side, a different line count on
// the two sides, or a line that does not parse.
//
//	go run ./cmd/benchjson -base base.txt -head head.txt -out BENCH_CI.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	// minGeomean is the floor on the figure benchmarks' geomean paired
	// speedup: on a 2-vCPU container identical code read 0.92–1.08 and a
	// 10% slowdown of every simulation 0.83–0.91.
	minGeomean = 0.95
	// maxAllocGrowth bounds a figure benchmark's median allocs/op on head
	// over base: identical code's medians differ by under 0.7%; one
	// extra allocation per simulation adds 2.7–6.5% to Figures 3–5, 7, 8.
	maxAllocGrowth = 0.02
)

// figures are the paper-figure benchmarks: required on both sides, gated.
var figures = []string{"Figure1", "Figure3", "Figure4", "Figure5", "Figure6", "Figure7", "Figure8"}

// result holds one benchmark line's metrics keyed by unit ("ns/op", ...).
type result map[string]float64

// parseBench reads `go test -bench` output and returns each benchmark's
// lines in order, named without the "Benchmark" prefix and the -N
// GOMAXPROCS suffix. Every line that starts with "Benchmark" must parse.
func parseBench(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest come in (value, unit)
		// pairs regardless of which metrics a benchmark reports.
		r := make(result)
		err := fmt.Errorf("want an iteration count and (value, unit) pairs")
		if len(fields) >= 4 && len(fields)%2 == 0 {
			_, err = strconv.Atoi(fields[1])
			for i := 2; err == nil && i < len(fields); i += 2 {
				r[fields[i+1]], err = strconv.ParseFloat(fields[i], 64)
			}
		}
		if err != nil || !(r["ns/op"] > 0) {
			return nil, fmt.Errorf("%s: benchmark %s: cannot parse line %q", path, name, sc.Text())
		}
		out[name] = append(out[name], r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), as
// `dvaperf -compare` does. xs is sorted in place and not empty.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// medians reduces a benchmark's lines to per-metric medians; no lines give
// an empty map, which the report omits.
func medians(rs []result) result {
	vs := make(map[string][]float64)
	for _, r := range rs {
		for unit, v := range r {
			vs[unit] = append(vs[unit], v)
		}
	}
	m := make(result, len(vs))
	for unit, v := range vs {
		_, m[unit], _ = quartiles(v)
	}
	return m
}

// entry is one benchmark's row in the JSON output. A benchmark that runs on
// one side only has no speedup.
type entry struct {
	Base      result  `json:"base,omitempty"`
	Head      result  `json:"head,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"` // median of the paired base ÷ head ns/op
	SpeedupQ1 float64 `json:"speedup_q1,omitempty"`
	SpeedupQ3 float64 `json:"speedup_q3,omitempty"`
}

type report struct {
	Benchmarks map[string]entry `json:"benchmarks"`
	// Figures lists the benchmarks (paper figures) entering the geomean.
	Figures []string `json:"figure_benchmarks"`
	// FigureGeomeanSpeedup is the geometric mean of the figure benchmarks'
	// median paired speedups, the gated number.
	FigureGeomeanSpeedup float64 `json:"figure_geomean_speedup"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "bench output of the base revision (required)")
	headPath := fs.String("head", "", "bench output of the head revision, same pairs in the same order (required)")
	out := fs.String("out", "", "JSON report path (required)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	for _, f := range []struct{ name, val string }{
		{"base", *basePath}, {"head", *headPath}, {"out", *out},
	} {
		if f.val == "" {
			fmt.Fprintf(stderr, "benchjson: -%s is required\n", f.name)
			return 2
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}

	base, err := parseBench(*basePath)
	if err != nil {
		return fail(err)
	}
	head, err := parseBench(*headPath)
	if err != nil {
		return fail(err)
	}
	rep := report{Benchmarks: make(map[string]entry), Figures: figures}
	for _, side := range []map[string][]result{base, head} {
		for n := range side {
			if _, done := rep.Benchmarks[n]; done {
				continue
			}
			b, h := base[n], head[n]
			e := entry{Base: medians(b), Head: medians(h)}
			// A benchmark only one side has (one the head adds) is
			// reported unpaired; one both sides ran must pair line for line.
			if len(b) > 0 && len(h) > 0 {
				if len(b) != len(h) {
					return fail(fmt.Errorf("benchmark %s: %d lines in base, %d in head; they cannot be paired", n, len(b), len(h)))
				}
				ratios := make([]float64, len(b))
				for k := range b {
					ratios[k] = b[k]["ns/op"] / h[k]["ns/op"]
				}
				q1, q2, q3 := quartiles(ratios)
				e.Speedup, e.SpeedupQ1, e.SpeedupQ3 = round3(q2), round3(q1), round3(q3)
			}
			rep.Benchmarks[n] = e
		}
	}

	code, logSum := 0, 0.0
	for _, n := range figures {
		e := rep.Benchmarks[n]
		if e.Speedup == 0 {
			return fail(fmt.Errorf("benchmark %s: %d lines in base, %d in head; a figure benchmark must run on both sides",
				n, len(base[n]), len(head[n])))
		}
		logSum += math.Log(e.Speedup)
		ba, ha := e.Base["allocs/op"], e.Head["allocs/op"]
		fmt.Fprintf(stdout, "%-8s %.3fx [%.3f, %.3f]  allocs/op %.0f -> %.0f\n", n, e.Speedup, e.SpeedupQ1, e.SpeedupQ3, ba, ha)
		if ha > ba*(1+maxAllocGrowth) {
			fmt.Fprintf(stderr, "benchjson: %s allocs/op %.0f -> %.0f, more than %.0f%% up\n", n, ba, ha, 100*maxAllocGrowth)
			code = 1
		}
	}
	rep.FigureGeomeanSpeedup = round3(math.Exp(logSum / float64(len(figures))))
	if rep.FigureGeomeanSpeedup < minGeomean {
		fmt.Fprintf(stderr, "benchjson: figure geomean %.3fx below floor %.2fx\n", rep.FigureGeomeanSpeedup, minGeomean)
		code = 1
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "benchjson: %s (figure geomean %.3fx over %d benchmarks)\n", *out, rep.FigureGeomeanSpeedup, len(figures))
	return code
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
