// Command dvaperf is the end-to-end benchmark of the decvec simulators. It
// times four workloads from outside the program, through the layers'
// exported functions and interfaces, checks every output it times, and
// reports host time and host resources; the simulated statistics are pinned
// by digests and are never metrics.
//
// Usage, from the repository root:
//
//	bash cmd/dvaperf/run.sh -workload all|<name> -seed N [-seconds S] [-trace 0|1]
//	                        [-json out.json] [-spans spans.json]
//
// run.sh builds the benchmark into .bench_build and runs it; inside
// cmd/dvaperf, `go run . <flags>` does the same. Each workload runs in its
// own process, so setup_s and rss_mb are per workload. The command
// prints one line per metric (workload, name, value, unit, samples) and, as
// its last line, one JSON object with the keys correct, attempted, failed
// and metrics. It exits 1 when an operation or a correctness check fails.
//
// The workloads:
//
//   - figures-cold: every paper experiment through RunExperimentCtx on a
//     fresh suite and an empty disk store; the cores and cache writes work.
//   - sweep-warm: a seeded grid through sweep.Run over two in-process dvad
//     workers restarted before every pass, so every cell is a disk-tier hit;
//     the codec, cache reads, coordinator and NDJSON serving work.
//   - serve-mix: an in-process dvad under bench/loadtest.sh's dvadload
//     storms for every program and architecture, from two clients in a
//     closed loop.
//   - events: recorded runs through RunSourceRecorded and their Trace Event
//     Format rendering.
//
// -trace 0 reports the end-to-end metrics. -trace 1 splits the window into
// an untraced and a traced half, records spans at the layer boundaries the
// benchmark can wrap (operation, experiment, admission gate, sweep chunk,
// HTTP client and handler, recorded run, TEF write), replays the layer
// functions it cannot wrap, and reports the per-layer metrics: replayed
// times, each layer's self time as a share of operation time, and counters.
// It writes the spans as a TEF file. -json writes the results with units,
// sample counts, bounds, seed, revision, Go version, GOMAXPROCS and check
// tallies. -compare A B summarizes two directories of -json results, as
// ab.sh does. See README.md for the metric tables and the layer map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one named workload.
type workloadDef struct {
	name string
	run  func(e *env) error
}

var workloads = []workloadDef{
	{"figures-cold", runFigures},
	{"sweep-warm", runSweepWarm},
	{"serve-mix", runServeMix},
	{"events", runEvents},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, fullSizes)) }

// run is the command with its workloads sized by sz.
func run(args []string, stdout io.Writer, sz sizes) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("dvaperf", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload: all, "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the workload inputs")
	seconds := fs.Float64("seconds", runSeconds, "length of each workload's timed window, in seconds")
	traced := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced pass and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the results as JSON to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the spans as TEF JSON to this file (default: in the temp directory)")
	compare := fs.Bool("compare", false, "summarize two directories of -json results, given as arguments, instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareDirs(fs.Args(), stdout)
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "dvaperf: unexpected arguments %q\n", fs.Args())
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(os.Stderr, "dvaperf: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	case !(*seconds > 0) || *seconds > 3600:
		fmt.Fprintf(os.Stderr, "dvaperf: -seconds must be in (0, 3600], got %v\n", *seconds)
		return 2
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		size:    sz,
	}
	if *name == "all" {
		return runAll(opt, *jsonOut, *spansOut, stdout)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		res, spans := runWorkload(w, opt)
		if opt.trace {
			path := *spansOut
			if path == "" {
				path = filepath.Join(os.TempDir(), "dvaperf-"+w.name+"-spans.json")
			}
			if err := writeSpans(path, spans); err != nil {
				fmt.Fprintf(os.Stderr, "dvaperf: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "dvaperf: %s: %d spans written to %s\n", w.name, len(spans), path)
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, res); err != nil {
				fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
				return 1
			}
		}
		printResult(stdout, res)
		if err := printSummary(stdout, res.Correct, res.Attempted, res.Failed, res.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "dvaperf: unknown workload %q (want all, %s)\n", *name, strings.Join(names, ", "))
	return 2
}

// result is one workload run, as -json writes it.
type result struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	Revision   string      `json:"revision"`
	GoVersion  string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Correct    bool        `json:"correct"`
	Attempted  int         `json:"attempted"`
	Failed     int         `json:"failed"`
	Error      string      `json:"error,omitempty"`
	Metrics    []metricOut `json:"metrics"`
	Checks     []checkOut  `json:"checks"`
}

type metricOut struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

type checkOut struct {
	Name         string `json:"name"`
	Passed       int    `json:"passed"`
	Failed       int    `json:"failed"`
	FirstFailure string `json:"firstFailure,omitempty"`
}

// runWorkload runs one workload in this process and returns its result and,
// for a traced run, its spans.
func runWorkload(w workloadDef, opt options) (*result, []span) {
	rep := newLedger(w.name)
	e := &env{opt: opt, rep: rep, tr: newTracer(), log: logf(w.name)}
	err := func() error {
		tmp, err := os.MkdirTemp("", "dvaperf-"+w.name+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		e.tmp = tmp
		if err := w.run(e); err != nil {
			return err
		}
		if opt.trace {
			return replayLayers(e)
		}
		return nil
	}()
	spans := e.tr.closed()
	if opt.trace {
		rep.check("spans: every parent exists and encloses its children", validateSpans(spans))
	}

	res := &result{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds.Seconds(), Trace: opt.trace,
		Revision: revision(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Attempted: rep.attempted, Failed: rep.failed,
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !opt.trace && err == nil {
			err = fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			err = errors.Join(err, fmt.Errorf("metric %s is not finite", d.name))
			v = value{}
		}
		res.Metrics = append(res.Metrics, metricOut{d.name, d.unit, d.better, d.bound, v.v, v.n})
	}
	names := make([]string, 0, len(rep.checks))
	for n := range rep.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := rep.checks[n]
		res.Checks = append(res.Checks, checkOut{n, c.passed, c.failed, c.first})
	}
	res.Correct = err == nil && rep.correct()
	if err != nil {
		res.Error = err.Error()
		e.log("%v", err)
	}
	for _, c := range res.Checks {
		if c.Failed > 0 {
			e.log("check %q failed %d of %d times: %s", c.Name, c.Failed, c.Passed+c.Failed, c.FirstFailure)
		}
	}
	return res, spans
}

// revision names the source revision the binary was built from, when the
// build recorded one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func printResult(w io.Writer, res *result) {
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-12s %-30s %18s %-9s n=%d\n", res.Workload, m.Name,
			strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.Samples)
	}
	for _, c := range res.Checks {
		fmt.Fprintf(w, "%-12s check %-55s %d passed, %d failed\n", res.Workload, c.Name, c.Passed, c.Failed)
	}
}

// printSummary prints the last line: one JSON object with the keys correct,
// attempted, failed and metrics.
func printSummary(w io.Writer, correct bool, attempted, failed int, metrics []metricOut) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]metric, len(metrics))
	for _, x := range metrics {
		m[x.Name] = metric{x.Value, x.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own and merges their
// results; the summary line qualifies each metric as <workload>/<metric>.
func runAll(opt options, jsonOut, spansOut string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "dvaperf-all-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var all []*result
	var metrics []metricOut
	correct, attempted, failed := true, 0, 0
	for _, w := range workloads {
		out := filepath.Join(tmp, w.name+".json")
		childArgs := []string{"-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds.Seconds(), 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[opt.trace], "-json", out}
		if spansOut != "" {
			childArgs = append(childArgs, "-spans", strings.TrimSuffix(spansOut, ".json")+"-"+w.name+".json")
		}
		cmd := exec.Command(self, childArgs...)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		res := &result{}
		b, err := os.ReadFile(out)
		if err == nil {
			err = json.Unmarshal(b, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvaperf: %s: no result (%v, exit %v)\n", w.name, err, runErr)
			correct = false
			continue
		}
		all = append(all, res)
		correct = correct && res.Correct && runErr == nil
		attempted += res.Attempted
		failed += res.Failed
		for _, m := range res.Metrics {
			m.Name = w.name + "/" + m.Name
			metrics = append(metrics, m)
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, all); err != nil {
			fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
			return 1
		}
	}
	if err := printSummary(stdout, correct, attempted, failed, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "dvaperf: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// readResult reads one -json result file.
func readResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res := &result{}
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}
