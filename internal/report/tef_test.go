package report

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"decvec/internal/dva"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/workload"
)

// tefGolden holds the SHA-256 of the Trace Event Format document of every
// recorded cell in tefCells, as `<hex digest>  <cell>` lines. The digests
// were taken from the json.Marshal-per-event encoder that preceded the
// append encoder, so they pin the output byte for byte across encoder
// rewrites.
//
//go:embed testdata/tef.sha256
var tefGolden string

// tefCell is one recorded run: a simulated program on an architecture at a
// memory latency, optionally with a bounded recorder.
type tefCell struct {
	prog      *workload.Program
	arch      string // REF, DVA or BYP
	latency   int64
	maxEvents int
}

func (c tefCell) name() string {
	s := fmt.Sprintf("%s-%s-L%d", c.prog.Name, c.arch, c.latency)
	if c.maxEvents > 0 {
		s += fmt.Sprintf("-max%d", c.maxEvents)
	}
	return s
}

// record runs the cell at trace scale 1 and returns the result and stream.
func (c tefCell) record(tb testing.TB) (*sim.Result, *sim.Recorder) {
	tb.Helper()
	rec := sim.NewRecorder()
	rec.MaxEvents = c.maxEvents
	cfg := sim.DefaultConfig(c.latency)
	src := c.prog.CachedTrace(1)
	var res *sim.Result
	var err error
	if c.arch == "REF" {
		res, err = ref.RunRecorded(src, cfg, rec)
	} else {
		cfg.Bypass = c.arch == "BYP"
		res, err = dva.RunRecorded(src, cfg, rec)
	}
	if err != nil {
		tb.Fatalf("%s: %v", c.name(), err)
	}
	return res, rec
}

// tefCells lists the six simulated programs on REF, DVA and BYP at L=50,
// the cells `dvasim -events` is benchmarked on, plus one bounded recorder
// that drops events.
func tefCells(tb testing.TB) []tefCell {
	tb.Helper()
	var cells []tefCell
	for _, p := range workload.Simulated() {
		for _, arch := range []string{"REF", "DVA", "BYP"} {
			cells = append(cells, tefCell{prog: p, arch: arch, latency: 50})
		}
	}
	trfd, err := workload.Get("TRFD")
	if err != nil {
		tb.Fatal(err)
	}
	return append(cells, tefCell{prog: trfd, arch: "DVA", latency: 50, maxEvents: 4096})
}

// TestWriteTraceEventsGolden renders every cell and compares the digest of
// its bytes with testdata/tef.sha256. On a mismatch the log carries the
// digests of the current encoder in the file's format.
func TestWriteTraceEventsGolden(t *testing.T) {
	want := map[string]string{}
	for _, line := range strings.Split(tefGolden, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[1]] = f[0]
		}
	}
	var got strings.Builder
	mismatch := false
	for _, c := range tefCells(t) {
		res, rec := c.record(t)
		if c.maxEvents > 0 && rec.Dropped == 0 {
			t.Errorf("%s: bounded recorder dropped nothing", c.name())
		}
		h := sha256.New()
		if err := WriteTraceEvents(h, res, rec); err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		sum := hex.EncodeToString(h.Sum(nil))
		fmt.Fprintf(&got, "%s  %s\n", sum, c.name())
		if want[c.name()] != sum {
			t.Errorf("%s: TEF digest %s, golden %q", c.name(), sum, want[c.name()])
			mismatch = true
		}
	}
	if mismatch {
		t.Logf("current digests:\n%s", got.String())
	}
}

// FuzzAppendJSONString holds the encoder's string escaping to encoding/json
// for arbitrary input, HTML escaping, invalid UTF-8 and U+2028 included.
func FuzzAppendJSONString(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal %s", s, got, want)
		}
	})
}

// syntheticRecorder records n events cycling through every event kind.
func syntheticRecorder(n int) *sim.Recorder {
	r := sim.NewRecorder()
	for i := 0; i < n; i++ {
		c := int64(i)
		switch i % 6 {
		case 0:
			r.Issue(c, sim.ProcVP, c, "qmov.av->v")
		case 1:
			r.Stall(c, sim.StallAPBus)
		case 2:
			r.QueueEvent(c, "AVDQ", true, 3)
		case 3:
			r.BusGrant(c, sim.ProcAP, c, 8)
		case 4:
			r.Bypass(c, c, 16)
		case 5:
			r.Flush(c, c)
		}
	}
	return r
}

// The encoder's allocations do not grow with the stream: a 100k-event
// recorder costs what a 10-event one does.
func TestWriteTraceEventsAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	res := &sim.Result{Arch: "DVA", Config: sim.DefaultConfig(50)}
	allocs := func(n int) float64 {
		rec := syntheticRecorder(n)
		return testing.AllocsPerRun(5, func() {
			if err := WriteTraceEvents(io.Discard, res, rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(100_000)
	if small != large {
		t.Errorf("WriteTraceEvents allocates %.0f times for 10 events, %.0f for 100k", small, large)
	}
}

type failWriter struct{ writes int }

func (w *failWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// The first write error is returned and no later write is attempted.
func TestWriteTraceEventsWriteError(t *testing.T) {
	w := &failWriter{}
	err := WriteTraceEvents(w, &sim.Result{Arch: "DVA"}, syntheticRecorder(10_000))
	if err == nil || err.Error() != "disk full" {
		t.Errorf("err = %v, want disk full", err)
	}
	if w.writes != 1 {
		t.Errorf("%d writes after the first failed, want 0", w.writes-1)
	}
}

// BenchmarkWriteTraceEvents renders the BDNA/DVA L=50 stream, the largest
// cell of tefCells.
func BenchmarkWriteTraceEvents(b *testing.B) {
	p, err := workload.Get("BDNA")
	if err != nil {
		b.Fatal(err)
	}
	res, rec := tefCell{prog: p, arch: "DVA", latency: 50}.record(b)
	var n countWriter
	if err := WriteTraceEvents(&n, res, rec); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTraceEvents(io.Discard, res, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// countWriter counts the bytes written to it.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
