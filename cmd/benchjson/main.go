// Command benchjson turns a pair of `go test -bench` outputs — a checked-in
// baseline and a fresh run — into a single JSON trajectory file. The repo
// tracks the result (BENCH_PR<n>.json) so performance claims in each PR are
// reproducible numbers, not prose: each benchmark carries its baseline and
// current ns/op, B/op, allocs/op and any custom metrics (sims/op,
// simcycles/s), a baseline/current speedup, and the file closes with the
// geometric-mean speedup over the paper-figure benchmarks.
//
// With -min-geomean set, benchjson doubles as the CI performance gate: the
// report is still written, then the process exits nonzero if the figure
// geomean speedup falls below the floor (CI uses 0.95, allowing runner
// noise but failing real regressions). Feed it a `-count 3` (or higher) run:
// repeated lines for one benchmark are reduced to their per-metric median
// before any speedup is computed, so one descheduled run cannot flake the
// gate.
//
// Usage:
//
//	go test -bench . -benchtime 1x -count 3 -benchmem -run '^$' . > current.txt
//	go run ./cmd/benchjson -baseline bench/baseline_pr10.txt \
//	    -current current.txt -out BENCH_CI.json -min-geomean 0.95 \
//	    -desc "..." -notes "..."
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

// result holds one benchmark's metrics keyed by unit ("ns/op",
// "allocs/op", "sims/op", ...).
type result map[string]float64

// samples collects every value a metric reported across repeated runs of the
// same benchmark (`go test -count N` emits one line per run).
type samples map[string][]float64

// parseBench reads `go test -bench` output and returns name → metrics. A
// benchmark that appears on several lines (a -count N run) contributes the
// per-metric median, so a single jittery run cannot swing the speedup the CI
// gate checks. The trailing -N GOMAXPROCS suffix is stripped so runs from
// machines with different core counts compare by name.
func parseBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	all := make(map[string]samples)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := all[name]
		if s == nil {
			s = make(samples)
			all[name] = s
		}
		// fields[1] is the iteration count; the rest come in (value, unit)
		// pairs regardless of which metrics a benchmark reports.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q for %s", path, fields[i], name)
			}
			s[fields[i+1]] = append(s[fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make(map[string]result, len(all))
	for name, s := range all {
		r := make(result, len(s))
		for unit, vs := range s {
			r[unit] = median(vs)
		}
		out[name] = r
	}
	return out, nil
}

// median returns the middle sample (mean of the middle two for even counts).
// Callers never pass an empty slice: every parsed metric has ≥ 1 sample.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// entry is one benchmark's row in the JSON output.
type entry struct {
	Baseline result  `json:"baseline,omitempty"`
	Current  result  `json:"current,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"` // baseline ns/op ÷ current ns/op
}

type report struct {
	Description string           `json:"description"`
	Baseline    string           `json:"baseline_file"`
	Benchmarks  map[string]entry `json:"benchmarks"`
	// Figures lists the benchmarks (paper figures) entering the geomean.
	Figures []string `json:"figure_benchmarks"`
	// FigureGeomeanSpeedup is the geometric mean of the figure benchmarks'
	// wall-clock speedups — the PR's headline number.
	FigureGeomeanSpeedup float64 `json:"figure_geomean_speedup"`
	Notes                string  `json:"notes,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "checked-in baseline bench output (required)")
	current := fs.String("current", "", "fresh bench output (required)")
	out := fs.String("out", "", "JSON report path (required)")
	desc := fs.String("desc", "pre-PR baseline vs current; speedup = baseline ns/op / current ns/op",
		"one-line description of what the trajectory compares")
	notes := fs.String("notes", "", "free-form notes embedded in the report")
	minGeomean := fs.Float64("min-geomean", 0,
		"fail (exit 1) if the figure geomean speedup falls below this value; 0 disables the gate")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	for _, f := range []struct{ name, val string }{
		{"baseline", *baseline}, {"current", *current}, {"out", *out},
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

	base, err := parseBench(*baseline)
	if err != nil {
		return fail(err)
	}
	cur, err := parseBench(*current)
	if err != nil {
		return fail(err)
	}

	rep := report{
		Description: *desc,
		Baseline:    *baseline,
		Benchmarks:  make(map[string]entry),
		Notes:       *notes,
	}
	names := make(map[string]bool)
	for n := range base {
		names[n] = true
	}
	for n := range cur {
		names[n] = true
	}
	for n := range names {
		e := entry{Baseline: base[n], Current: cur[n]}
		if b, c := e.Baseline["ns/op"], e.Current["ns/op"]; b > 0 && c > 0 {
			e.Speedup = round3(b / c)
		}
		rep.Benchmarks[n] = e
	}

	// The paper-figure regeneration benchmarks define the headline geomean.
	logSum, logN := 0.0, 0
	for _, n := range []string{"Figure1", "Figure3", "Figure4", "Figure5", "Figure6", "Figure7", "Figure8"} {
		if s := rep.Benchmarks[n].Speedup; s > 0 {
			rep.Figures = append(rep.Figures, n)
			logSum += math.Log(s)
			logN++
		}
	}
	sort.Strings(rep.Figures)
	if logN > 0 {
		rep.FigureGeomeanSpeedup = round3(math.Exp(logSum / float64(logN)))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "benchjson: %s (figure geomean %.3fx over %d benchmarks)\n",
		*out, rep.FigureGeomeanSpeedup, logN)

	// The gate makes the bench step CI-enforceable: the report is always
	// written (the artifact survives a failure for diagnosis), then the run
	// fails if the figure geomean regressed below the floor.
	if *minGeomean > 0 {
		if logN == 0 {
			fmt.Fprintf(stderr, "benchjson: -min-geomean %.2f set but no figure benchmarks matched\n", *minGeomean)
			return 1
		}
		if rep.FigureGeomeanSpeedup < *minGeomean {
			fmt.Fprintf(stderr, "benchjson: figure geomean %.3fx below floor %.2fx\n",
				rep.FigureGeomeanSpeedup, *minGeomean)
			return 1
		}
	}
	return 0
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
