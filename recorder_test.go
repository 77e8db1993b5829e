package decvec_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"decvec"
)

// Recording must be strictly passive: a run with a recorder attached takes
// identical decisions and produces bit-identical results. This is the
// observability layer's core invariant, checked per architecture.
func TestRecordingDoesNotPerturbResults(t *testing.T) {
	w, err := decvec.LoadWorkload("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"REF", "DVA", "BYP"} {
		t.Run(arch, func(t *testing.T) {
			cfg := decvec.DefaultConfig(30)
			plain, err := decvec.RunSourceRecorded(w.Trace(1), arch, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := decvec.NewRecorder()
			recorded, err := decvec.RunSourceRecorded(w.Trace(1), arch, cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Cycles != recorded.Cycles {
				t.Errorf("cycles differ: %d without recorder, %d with", plain.Cycles, recorded.Cycles)
			}
			if plain.States != recorded.States {
				t.Error("state breakdown differs with recorder attached")
			}
			if plain.Stalls != recorded.Stalls {
				t.Error("stall counts differ with recorder attached")
			}
			if plain.Traffic != recorded.Traffic ||
				plain.Bypasses != recorded.Bypasses ||
				plain.Flushes != recorded.Flushes ||
				plain.ScalarCacheHits != recorded.ScalarCacheHits ||
				plain.ScalarCacheMisses != recorded.ScalarCacheMisses {
				t.Error("traffic/bypass/flush counters differ with recorder attached")
			}
			if rec.Len() == 0 {
				t.Fatal("recorder captured no events")
			}
		})
	}
}

// The recorded stream must be consistent with the result's own counters.
func TestRecordedStreamMatchesCounters(t *testing.T) {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := decvec.DefaultConfig(30)
	rec := decvec.NewRecorder()
	res, err := decvec.RunSourceRecorded(w.Trace(1), "BYP", cfg, rec)
	if err != nil {
		t.Fatal(err)
	}

	// Every bypass and flush in the counters appears in the stream.
	if got := rec.Count(decvec.EvBypass); got != res.Bypasses {
		t.Errorf("bypass events = %d, counter = %d", got, res.Bypasses)
	}
	if got := rec.Count(decvec.EvFlush); got != res.Flushes {
		t.Errorf("flush events = %d, counter = %d", got, res.Flushes)
	}
	// Stall events, expanded by their coalesced length, sum to the stall
	// counters.
	var stallCycles int64
	for _, e := range rec.Events() {
		if e.Kind == decvec.EvStall {
			stallCycles += e.N
		}
	}
	if want := res.Stalls.Total(); stallCycles != want {
		t.Errorf("stall event cycles = %d, counters total %d", stallCycles, want)
	}
	// Queue pushes in the stream match the queue stats.
	pushes := map[string]int64{}
	for _, e := range rec.Events() {
		if e.Kind == decvec.EvQueuePush {
			pushes[e.Queue]++
		}
	}
	for _, q := range res.Queues {
		if pushes[q.Name] != q.Pushes {
			t.Errorf("queue %s: %d push events, stats say %d", q.Name, pushes[q.Name], q.Pushes)
		}
	}
	// Events are cycle-ordered per unit... globally they are emitted in
	// step order within a cycle, so cycles must be non-decreasing except
	// for coalesced stalls (whose Cycle is the run's start). Check the
	// weaker global invariant: no event is stamped beyond the run length.
	for _, e := range rec.Events() {
		if e.Cycle < 0 || e.Cycle > res.Cycles+1 {
			t.Fatalf("event outside the run: %+v (run is %d cycles)", e, res.Cycles)
		}
	}
}

// A recorded run keeps its stream in a few bytes per event. Over the cells
// of `dvasim -events` — the six simulated programs on REF, DVA and BYP at
// L=50, here at trace scale 0.25 — the bytes a recorded run allocates
// beyond the same run with no recorder, divided by the events it stored,
// stay under the bound.
func TestRecordedBytesPerEvent(t *testing.T) {
	var extra, events uint64
	for _, name := range decvec.SimulatedWorkloads() {
		w, err := decvec.LoadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		src := w.Trace(0.25)
		for _, arch := range []string{"REF", "DVA", "BYP"} {
			cfg := decvec.DefaultConfig(50)
			run := func(rec *decvec.Recorder) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := decvec.RunSourceRecorded(src, arch, cfg, rec); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			run(nil) // warm any pooled machine state
			plain := run(nil)
			rec := decvec.NewRecorder()
			recorded := run(rec)
			extra += recorded - min(plain, recorded)
			events += uint64(rec.Len())
		}
	}
	perEvent := float64(extra) / float64(events)
	t.Logf("%d events, %.3f B per event", events, perEvent)
	if perEvent > 7 {
		t.Errorf("recorded runs allocated %.2f B per stored event beyond unrecorded ones, want at most 7", perEvent)
	}
}

// MetricsJSON must round-trip as valid JSON carrying the per-reason stalls
// and per-queue occupancy.
func TestMetricsJSONSchema(t *testing.T) {
	w, err := decvec.LoadWorkload("FLO52")
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunDVA(decvec.DefaultConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	b, err := decvec.MetricsJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Arch   string `json:"arch"`
		Cycles int64  `json:"cycles"`
		Stalls []struct {
			Reason string `json:"reason"`
			Proc   string `json:"proc"`
			Cycles int64  `json:"cycles"`
		} `json:"stalls"`
		ProcStalls []struct {
			Proc   string `json:"proc"`
			Cycles int64  `json:"cycles"`
		} `json:"procStalls"`
		Queues []struct {
			Name     string  `json:"name"`
			Cap      int     `json:"cap"`
			Pressure float64 `json:"pressure"`
		} `json:"queues"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Arch != "DVA" || doc.Cycles != res.Cycles {
		t.Errorf("header wrong: %+v", doc)
	}
	if len(doc.Stalls) == 0 || len(doc.ProcStalls) == 0 {
		t.Error("stall attribution missing from metrics")
	}
	if len(doc.Queues) != len(res.Queues) {
		t.Errorf("got %d queues, want %d", len(doc.Queues), len(res.Queues))
	}
	for _, q := range doc.Queues {
		if q.Cap <= 0 || q.Pressure < 0 || q.Pressure > 1 {
			t.Errorf("implausible queue metric: %+v", q)
		}
	}
}

// The event trace must be a valid Trace Event Format JSON document.
func TestTraceEventsValidJSON(t *testing.T) {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	rec := decvec.NewRecorder()
	res, err := decvec.RunSourceRecorded(w.Trace(1), "DVA", decvec.DefaultConfig(30), rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := decvec.WriteTraceEvents(&buf, res, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= rec.Len() {
		// metadata events come on top of the recorded ones
		t.Errorf("trace has %d entries for %d recorded events", len(doc.TraceEvents), rec.Len())
	}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph] = true
		switch e.Ph {
		case "M", "X", "C", "i":
		default:
			t.Fatalf("unexpected phase %q in %+v", e.Ph, e)
		}
	}
	for _, want := range []string{"M", "X", "C"} {
		if !phases[want] {
			t.Errorf("no %q events in trace", want)
		}
	}
}

// The stall and queue report tables must render every nonzero reason and
// every queue.
func TestStallAndQueueTables(t *testing.T) {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunDVA(decvec.DefaultConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	st := decvec.StallTable(res)
	for _, sc := range res.Stalls.Nonzero() {
		if !bytes.Contains([]byte(st), []byte(sc.Reason.String())) {
			t.Errorf("stall table missing %s:\n%s", sc.Reason, st)
		}
	}
	qt := decvec.QueueTable(res)
	for _, q := range res.Queues {
		if !bytes.Contains([]byte(qt), []byte(q.Name)) {
			t.Errorf("queue table missing %s:\n%s", q.Name, qt)
		}
	}
}
