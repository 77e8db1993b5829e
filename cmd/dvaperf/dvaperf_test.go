package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload to the smallest trace scale and a few
// operations, so the whole suite runs in seconds under the race detector.
var tinySizes = sizes{
	scale:       1.0 / 16,
	setupReps:   1,
	figures:     []string{"fig1", "fig5"},
	sweepLats:   1,
	sweepLoadQs: []int{16}, sweepStoreQs: []int{16},
	sweepSample: 4,
	stormSize:   4, serveSample: 4,
	eventLats:  []int64{50},
	replayReps: 1,
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCode pins the window length and the metric and
// workload definitions to BENCHMARK.json: names, units, directions and
// bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, code %d", f.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	var got []metricDef
	for _, m := range f.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\ncode\n%v", got, endToEnd)
	}
	got = nil
	for _, m := range f.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\ncode\n%v", got, perLayer)
	}
}

// TestWorkloads runs every workload untraced and traced at tiny size, all
// at once, and checks the summary line, the -json file and the span file.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+traced, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				jsonPath := filepath.Join(dir, "out.json")
				spansPath := filepath.Join(dir, "spans.json")
				var out bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0.2",
					"-trace", traced, "-json", jsonPath, "-spans", spansPath}, &out, tinySizes)
				if code != 0 {
					t.Fatalf("exit %d; output:\n%s", code, out.String())
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				checkSummary(t, out.String(), defs)
				res, err := readResult(jsonPath)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Workload != w.name || len(res.Metrics) != len(defs) || len(res.Checks) == 0 {
					t.Errorf("-json result: correct %v, workload %q, %d metrics, %d checks",
						res.Correct, res.Workload, len(res.Metrics), len(res.Checks))
				}
				if traced == "1" {
					checkSpanFile(t, spansPath)
				}
			})
		}
	}
}

// checkSummary checks that the last output line is the summary object and
// names exactly the expected metrics.
func checkSummary(t *testing.T, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
		t.Errorf("summary: correct %v, attempted %d, failed %d", sum.Correct, sum.Attempted, sum.Failed)
	}
	var got, want []string
	for name, m := range sum.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, d := range defs {
		want = append(want, d.name+" "+d.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summary metrics\n%v\nwant\n%v", got, want)
	}
}

// checkSpanFile reads a TEF span file and checks that every span's parent
// exists and encloses it.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tef struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
			Args    struct{ ID, Parent int64 }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tef); err != nil {
		t.Fatal(err)
	}
	if len(tef.TraceEvents) == 0 {
		t.Fatal("no spans")
	}
	var spans []span
	roots := 0
	for _, e := range tef.TraceEvents {
		// The file holds microseconds; rounding recovers the nanoseconds.
		start := time.Duration(math.Round(e.Ts * 1e3))
		spans = append(spans, span{ID: e.Args.ID, Parent: e.Args.Parent, Name: e.Name,
			Start: start, End: start + time.Duration(math.Round(e.Dur*1e3))})
		if e.Args.Parent == 0 {
			roots++
			if e.Name != rootSpan {
				t.Errorf("root span %d is %q, want %q", e.Args.ID, e.Name, rootSpan)
			}
		}
	}
	if err := validateSpans(spans); err != nil {
		t.Error(err)
	}
	if roots == len(spans) {
		t.Error("no span has a parent: no layer boundary was traced")
	}
}
