package sim

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestStallReasonTablesComplete(t *testing.T) {
	for r := StallReason(0); r < NumStallReasons; r++ {
		if r.String() == "" || r.String() == "stall?" {
			t.Errorf("reason %d has no name", r)
		}
		if r.Proc() >= NumProcs {
			t.Errorf("reason %s has no processor", r)
		}
	}
	for p := Proc(0); p < NumProcs; p++ {
		if p.String() == "?" {
			t.Errorf("proc %d has no name", p)
		}
	}
	// Out-of-range values degrade gracefully.
	if StallReason(200).String() != "stall?" || Proc(200).String() != "?" {
		t.Error("out-of-range values must not panic")
	}
}

func TestStallCountsTotals(t *testing.T) {
	var s StallCounts
	s.Add(StallAPBus, 10)
	s.Add(StallAPData, 5)
	s.Add(StallVPFU, 3)
	if s.Total() != 18 {
		t.Errorf("Total = %d, want 18", s.Total())
	}
	if s.ProcTotal(ProcAP) != 15 {
		t.Errorf("ProcTotal(AP) = %d, want 15", s.ProcTotal(ProcAP))
	}
	if s.ProcTotal(ProcSP) != 0 {
		t.Errorf("ProcTotal(SP) = %d, want 0", s.ProcTotal(ProcSP))
	}
	nz := s.Nonzero()
	if len(nz) != 3 {
		t.Fatalf("Nonzero len = %d, want 3", len(nz))
	}
	for i := 1; i < len(nz); i++ {
		if nz[i].Cycles > nz[i-1].Cycles {
			t.Errorf("Nonzero not sorted: %+v", nz)
		}
	}
	if nz[0].Reason != StallAPBus || nz[0].Cycles != 10 {
		t.Errorf("top reason = %+v, want AP.bus x10", nz[0])
	}
}

// TestNilRecorderIsSafe calls every exported Recorder method on a nil
// receiver, once with zero-valued arguments and once with ones (numbers 1,
// strings "x", bools true) that get past early-outs like StallN's n <= 0.
// Each call must be a no-op that returns zero values, so emission sites need
// no guard and recording off costs nothing. The methods are enumerated, so a
// new one is covered unedited.
func TestNilRecorderIsSafe(t *testing.T) {
	typ := reflect.TypeOf((*Recorder)(nil))
	if typ.NumMethod() == 0 {
		t.Fatal("Recorder has no exported methods")
	}
	arg := func(at reflect.Type, one bool) reflect.Value {
		v := reflect.New(at).Elem()
		if !one {
			return v
		}
		switch {
		case v.CanInt():
			v.SetInt(1)
		case v.CanUint():
			v.SetUint(1)
		case at.Kind() == reflect.String:
			v.SetString("x")
		case at.Kind() == reflect.Bool:
			v.SetBool(true)
		}
		return v
	}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		for _, one := range []bool{false, true} {
			t.Run(m.Name, func(t *testing.T) {
				args := []reflect.Value{reflect.Zero(typ)}
				for j := 1; j < m.Type.NumIn(); j++ {
					args = append(args, arg(m.Type.In(j), one))
				}
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("nil (*Recorder).%s%v panicked: %v", m.Name, args[1:], p)
					}
				}()
				for j, out := range m.Func.Call(args) {
					if !out.IsZero() {
						t.Errorf("nil (*Recorder).%s%v result %d = %v, want the zero value", m.Name, args[1:], j, out)
					}
				}
			})
		}
	}
}

func TestStallCoalescing(t *testing.T) {
	r := NewRecorder()
	// Three consecutive cycles of the same reason coalesce into one event.
	r.Stall(10, StallAPBus)
	r.Stall(11, StallAPBus)
	r.Stall(12, StallAPBus)
	// A gap starts a new event.
	r.Stall(20, StallAPBus)
	// A different reason interleaved keeps its own run.
	r.Stall(21, StallVPData)
	r.Stall(21, StallAPBus)
	r.Stall(22, StallVPData)

	var stalls []Event
	for _, e := range r.Events() {
		if e.Kind == EvStall {
			stalls = append(stalls, e)
		}
	}
	want := []struct {
		cycle, n int64
		reason   StallReason
	}{
		{10, 3, StallAPBus},
		{20, 2, StallAPBus}, // 20 and 21 coalesce despite the VP event between
		{21, 2, StallVPData},
	}
	if len(stalls) != len(want) {
		t.Fatalf("got %d stall events, want %d: %+v", len(stalls), len(want), stalls)
	}
	for i, w := range want {
		e := stalls[i]
		if e.Cycle != w.cycle || e.N != w.n || e.Reason != w.reason {
			t.Errorf("stall %d = {cycle %d, n %d, %s}, want {%d, %d, %s}",
				i, e.Cycle, e.N, e.Reason, w.cycle, w.n, w.reason)
		}
	}
}

func TestMaxEventsDrops(t *testing.T) {
	r := NewRecorder()
	r.MaxEvents = 3
	for i := int64(0); i < 10; i++ {
		r.Issue(i, ProcFP, i, "x")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if r.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", r.Dropped)
	}
	// Coalescing into an already-stored stall still works at the bound.
	r2 := NewRecorder()
	r2.MaxEvents = 1
	r2.Stall(5, StallAPBus)
	r2.Stall(6, StallAPBus)
	if r2.Len() != 1 || r2.Events()[0].N != 2 {
		t.Errorf("coalescing at the bound broken: %+v", r2.Events())
	}
	if r2.Dropped != 0 {
		t.Errorf("coalesced cycles must not count as dropped: %d", r2.Dropped)
	}
}

func TestRecorderCountsAndKinds(t *testing.T) {
	r := NewRecorder()
	r.Issue(1, ProcAP, 7, "VLoad")
	r.BusGrant(1, ProcAP, 7, 8)
	r.Bypass(2, 9, 16)
	r.Flush(3, 4)
	r.QueueEvent(4, "AVDQ", true, 1)
	r.QueueEvent(5, "AVDQ", false, 0)
	if r.Count(EvIssue) != 1 || r.Count(EvBusGrant) != 1 || r.Count(EvBypass) != 1 ||
		r.Count(EvFlush) != 1 || r.Count(EvQueuePush) != 1 || r.Count(EvQueuePop) != 1 {
		t.Errorf("kind counts wrong: %+v", r.Events())
	}
	for k := EventKind(0); k < NumEventKinds; k++ {
		if k.String() == "event?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	ev := r.Events()[0]
	if ev.Proc != ProcAP || ev.Seq != 7 || ev.Label != "VLoad" {
		t.Errorf("issue event fields wrong: %+v", ev)
	}
}

// Each yields the stored events in order, also while a nested walk of the
// same recorder runs inside its callback.
func TestEachNilAndOrder(t *testing.T) {
	var nilRec *Recorder
	nilRec.Each(func(*Event) { t.Error("nil recorder yielded an event") })

	r := NewRecorder()
	const n = 2*chunkLen + 3
	for i := int64(0); i < n; i++ {
		r.Issue(i, ProcAP, i, "x")
	}
	var next int64
	r.Each(func(e *Event) {
		if next%chunkLen == 0 {
			r.Events()
		}
		if e.Seq != next {
			t.Fatalf("Each yielded seq %d at position %d", e.Seq, next)
		}
		next++
	})
	if next != n || r.Len() != n || len(r.Events()) != n {
		t.Errorf("walked %d, Len %d, Events %d; want %d", next, r.Len(), len(r.Events()), n)
	}
}

// fillIssues stores n issue events at cycles 0..n-1.
func fillIssues(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		r.Issue(int64(i), ProcFP, int64(i), "x")
	}
}

// A stall stored as the last event of a full chunk keeps coalescing after
// later events open the next chunk.
func TestStallCoalescesAcrossChunkBoundary(t *testing.T) {
	r := NewRecorder()
	fillIssues(r, chunkLen-1)
	r.Stall(100, StallAPBus) // event chunkLen-1, the last of chunk 0
	r.Issue(100, ProcVP, 0, "y")
	r.Stall(101, StallAPBus)
	r.StallSpan(102, StallAPBus, 5)
	if r.Len() != chunkLen+1 {
		t.Fatalf("Len = %d, want %d", r.Len(), chunkLen+1)
	}
	ev := r.Events()
	if e := ev[chunkLen-1]; e.Kind != EvStall || e.Cycle != 100 || e.N != 7 {
		t.Errorf("boundary stall = %+v, want cycle 100 N 7", e)
	}
	if e := ev[chunkLen]; e.Kind != EvIssue || e.Label != "y" {
		t.Errorf("first event of chunk 1 = %+v", e)
	}
}

// MaxEvents equal to the chunk size stops storing exactly at the chunk's
// end, while coalescing into the full chunk continues.
func TestMaxEventsAtChunkSize(t *testing.T) {
	r := NewRecorder()
	r.MaxEvents = chunkLen
	fillIssues(r, chunkLen-1)
	r.StallSpan(100, StallVPData, 2)
	r.Issue(102, ProcFP, 0, "dropped")
	r.Stall(102, StallVPData)       // coalesces: N 3
	r.Stall(200, StallVPData)       // gap: dropped
	r.StallSpan(300, StallAPBus, 9) // new reason: dropped as one
	r.StallN(400, StallAPBus, 4)
	if r.Len() != chunkLen || r.Dropped != 4 {
		t.Errorf("Len %d Dropped %d, want %d and 4", r.Len(), r.Dropped, chunkLen)
	}
	if len(r.chunks) != 1 {
		t.Errorf("bounded recorder allocated %d chunks, want 1", len(r.chunks))
	}
	if e := r.Events()[chunkLen-1]; e.Cycle != 100 || e.N != 3 {
		t.Errorf("last stored stall = %+v, want cycle 100 N 3", e)
	}
}

// Recording into a reset recorder reuses its chunks and records exactly
// what a fresh recorder does.
func TestResetReusesChunks(t *testing.T) {
	const n = 3*chunkLen + 5
	labels := []string{"salu", "vload", "", "branch"}
	queues := []string{"AVDQ", "VADQ", "SFBQ"}
	record := func(r *Recorder) {
		for i := 0; i < n; i++ {
			r.Issue(int64(2*i), ProcSP, int64(i), labels[i%len(labels)])
			r.Stall(int64(2*i), StallSPData)
			r.QueueEvent(int64(2*i), queues[i%len(queues)], i%2 == 0, i%7)
		}
	}
	r := NewRecorder()
	record(r)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset()
		record(r)
	})
	if allocs != 0 {
		t.Errorf("recording into a reset recorder allocated %.0f times, want 0", allocs)
	}
	fresh := NewRecorder()
	record(fresh)
	got, want := r.Events(), fresh.Events()
	if len(got) != len(want) {
		t.Fatalf("reset recorder stored %d events, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: reset %+v, fresh %+v", i, got[i], want[i])
		}
	}
}

// recordMixed records issues, stalls, queue pushes and pops and bus grants
// until r stores events events.
func recordMixed(r *Recorder, events int) {
	labels := []string{"salu", "vload", "vstore", "", "ld", "exec"}
	queues := []string{"AVDQ", "VADQ", "ASDQ", "VSAQ", "APIQ"}
	for c := int64(0); r.Len() < events; c++ {
		switch c % 5 {
		case 0:
			r.Issue(c, Proc(c%int64(NumProcs)), c, labels[c%int64(len(labels))])
		case 1:
			r.Stall(c, StallReason(c%int64(NumStallReasons)))
			r.Stall(c+1, StallReason(c%int64(NumStallReasons))) // coalesces
		case 2, 3:
			r.QueueEvent(c, queues[c%int64(len(queues))], c%5 == 2, int(c%9))
		case 4:
			r.BusGrant(c, ProcAP, c, 8)
		}
	}
}

// A stored event costs its 32-byte slot and next to nothing else: chunk
// rounding and the chunk index stay under one byte per event at 100k.
func TestBytesPerStoredEvent(t *testing.T) {
	const events = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRecorder()
	recordMixed(r, events)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Len())
	t.Logf("%.3f B per event", perEvent)
	if perEvent > 33 {
		t.Errorf("recording %d events allocated %.2f B per event, want at most 33", r.Len(), perEvent)
	}
	for k := EventKind(0); k < NumEventKinds; k++ {
		if k != EvBypass && k != EvFlush && r.Count(k) == 0 {
			t.Errorf("mixed stream holds no %s event", k)
		}
	}
}

// sameStream records fn into a fresh Recorder and the oracle and checks the
// recorder decodes exactly what the oracle stored, with the given bound.
func sameStream(t *testing.T, maxEvents int, fn func(s eventSink)) *Recorder {
	t.Helper()
	r, o := NewRecorder(), &oracle{max: maxEvents}
	r.MaxEvents = maxEvents
	fn(r)
	fn(o)
	checkAgainst(t, r, o)
	return r
}

// More distinct labels than the interned-name table holds still round-trip,
// the first nameCap without allocating, and so do they after a Reset that
// follows a name past capacity, which interns them as a fresh recorder does.
func TestInternPastCapacity(t *testing.T) {
	labels := make([]string, 3*nameCap)
	for i := range labels {
		labels[i] = "L" + strconv.Itoa(i)
	}
	record := func(s eventSink) {
		for round := 0; round < 2; round++ {
			for i, l := range labels {
				s.Issue(int64(i), ProcVP, int64(round), l)
				s.QueueEvent(int64(i), l, true, i)
			}
		}
	}
	r := sameStream(t, 0, record)
	if r.nNames != nameCap || len(r.more) != len(labels)-nameCap {
		t.Errorf("table holds %d names and %d more, want %d and %d",
			r.nNames, len(r.more), nameCap, len(labels)-nameCap)
	}
	reversed := func(s eventSink) {
		for i := len(labels) - 1; i >= 0; i-- {
			s.Issue(int64(i), ProcVP, 2, labels[i])
		}
	}
	o, fresh := &oracle{}, NewRecorder()
	r.Reset()
	reversed(r)
	reversed(o)
	reversed(fresh)
	checkAgainst(t, r, o)
	if r.names != fresh.names || len(r.more) != len(fresh.more) {
		t.Errorf("reset recorder interned %d names and %d more, a fresh one %d and %d",
			r.nNames, len(r.more), fresh.nNames, len(fresh.more))
	}

	small := NewRecorder()
	if allocs := testing.AllocsPerRun(5, func() {
		small.Reset()
		for _, l := range labels[:nameCap] {
			small.Issue(0, ProcVP, 0, l)
		}
	}); allocs != 0 {
		t.Errorf("interning %d names allocated %.0f times, want 0", nameCap, allocs)
	}
}

// The empty name round-trips as a label and as a queue name, also next to
// events that carry neither.
func TestInternEmptyName(t *testing.T) {
	sameStream(t, 0, func(s eventSink) {
		s.Issue(1, ProcFP, 1, "")
		s.QueueEvent(2, "", true, 1)
		s.Issue(3, ProcFP, 2, "salu")
		s.Issue(4, ProcFP, 3, "")
		s.Flush(5, 3)
		s.QueueEvent(6, "", false, 0)
	})
}

// The same text in two string headers is one interned name.
func TestInternSameTextTwoHeaders(t *testing.T) {
	a := "AVDQ"
	b := strings.Clone(a)
	if unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("strings.Clone shared the bytes")
	}
	r := sameStream(t, 0, func(s eventSink) {
		s.QueueEvent(1, a, true, 1)
		s.Issue(2, ProcAP, 1, b)
		s.QueueEvent(3, b, false, 0)
		s.Issue(4, ProcAP, 2, a)
	})
	if r.nNames != 1 {
		t.Errorf("one text interned as %d names", r.nNames)
	}
}

// Events dropped at the MaxEvents bound leave the stored stream intact,
// also while the names they carry overflow the table.
func TestInternAtMaxEvents(t *testing.T) {
	for _, max := range []int{1, nameCap - 1, nameCap + 1, 2 * nameCap} {
		sameStream(t, max, func(s eventSink) {
			for i := 0; i < 3*nameCap; i++ {
				s.Issue(int64(i), ProcSP, int64(i), "issue"+strconv.Itoa(i))
				s.Stall(int64(i), StallSPData)
				s.QueueEvent(int64(i), "q"+strconv.Itoa(i%(nameCap+3)), i%2 == 0, i)
			}
		})
	}
}
