package sim

import (
	"strconv"
	"testing"
)

// eventSink is the recording surface shared by Recorder and its oracle.
type eventSink interface {
	Issue(cycle int64, p Proc, seq int64, label string)
	Stall(cycle int64, reason StallReason)
	StallSpan(cycle int64, reason StallReason, n int64)
	StallN(cycle int64, reason StallReason, n int64)
	BusGrant(cycle int64, p Proc, seq, n int64)
	Bypass(cycle, seq, vl int64)
	Flush(cycle, seq int64)
	QueueEvent(cycle int64, name string, push bool, newLen int)
	Reset()
}

// oracle is the reference recorder: a plain []Event with the stream's
// semantics (MaxEvents, Dropped, stall coalescing), written without packing
// or interning.
type oracle struct {
	max       int
	dropped   int64
	events    []Event
	lastStall [NumStallReasons]int
}

func (o *oracle) record(e Event) {
	if o.max > 0 && len(o.events) >= o.max {
		o.dropped++
		return
	}
	o.events = append(o.events, e)
}

func (o *oracle) Issue(cycle int64, p Proc, seq int64, label string) {
	o.record(Event{Cycle: cycle, Kind: EvIssue, Proc: p, Seq: seq, Label: label})
}

func (o *oracle) Stall(cycle int64, reason StallReason) { o.StallSpan(cycle, reason, 1) }

func (o *oracle) StallSpan(cycle int64, reason StallReason, n int64) {
	if n <= 0 {
		return
	}
	if i := o.lastStall[reason]; i > 0 {
		if e := &o.events[i-1]; e.Cycle+e.N == cycle {
			e.N += n
			return
		}
	}
	if o.max > 0 && len(o.events) >= o.max {
		o.dropped++
		return
	}
	o.events = append(o.events, Event{Cycle: cycle, Kind: EvStall, Proc: reason.Proc(), Reason: reason, N: n})
	o.lastStall[reason] = len(o.events)
}

func (o *oracle) StallN(cycle int64, reason StallReason, n int64) {
	if n > 0 {
		o.record(Event{Cycle: cycle, Kind: EvStall, Proc: reason.Proc(), Reason: reason, N: n})
	}
}

func (o *oracle) BusGrant(cycle int64, p Proc, seq, n int64) {
	o.record(Event{Cycle: cycle, Kind: EvBusGrant, Proc: p, Seq: seq, N: n})
}

func (o *oracle) Bypass(cycle, seq, vl int64) {
	o.record(Event{Cycle: cycle, Kind: EvBypass, Proc: ProcAP, Seq: seq, N: vl})
}

func (o *oracle) Flush(cycle, seq int64) {
	o.record(Event{Cycle: cycle, Kind: EvFlush, Proc: ProcAP, Seq: seq})
}

func (o *oracle) QueueEvent(cycle int64, name string, push bool, newLen int) {
	k := EvQueuePop
	if push {
		k = EvQueuePush
	}
	o.record(Event{Cycle: cycle, Kind: k, Queue: name, N: int64(newLen)})
}

func (o *oracle) Reset() {
	o.dropped = 0
	o.events = o.events[:0]
	o.lastStall = [NumStallReasons]int{}
}

// checkAgainst fails t unless r holds exactly the oracle's stream.
func checkAgainst(t *testing.T, r *Recorder, o *oracle) {
	t.Helper()
	if r.Len() != len(o.events) || r.Dropped != o.dropped {
		t.Fatalf("Len %d Dropped %d, oracle %d and %d", r.Len(), r.Dropped, len(o.events), o.dropped)
	}
	var counts [NumEventKinds]int64
	for i, e := range r.Events() {
		if e != o.events[i] {
			t.Fatalf("event %d: recorder %+v, oracle %+v", i, e, o.events[i])
		}
		counts[e.Kind]++
	}
	for k := EventKind(0); k < NumEventKinds; k++ {
		if got := r.Count(k); got != counts[k] {
			t.Fatalf("Count(%s) = %d, oracle %d", k, got, counts[k])
		}
	}
}

// fuzzNames are the static names the fuzzer picks from: the empty label,
// the DVA's queue names and instruction classes.
var fuzzNames = []string{"", "AVDQ", "VADQ", "APIQ", "SSAQ", "vload", "valu", "salu", "branch"}

// fuzzName maps two fuzz bytes to a name: a static one, or one built fresh
// (a new string header every call) from up to 32768 distinct texts, enough
// to overflow the interned-name table.
func fuzzName(a, b byte) string {
	if a&0x80 == 0 {
		return fuzzNames[int(a)%len(fuzzNames)]
	}
	return "n" + strconv.Itoa(int(a&0x7f)<<8|int(b))
}

// FuzzRecorder drives a Recorder and the oracle through the same call
// sequence and checks that they hold the same stream. The first byte sets
// MaxEvents (below 128: unbounded); each following group of four bytes is
// one call: the method, a cycle advance of 0-3 (so stalls often coalesce),
// and two operand bytes.
func FuzzRecorder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 5, 0, 1, 1, 5, 0, 0, 2, 0x85, 9})
	f.Add([]byte{130, 0, 0, 1, 2, 1, 1, 3, 0, 7, 1, 1, 1, 8, 0, 0, 0, 2, 0, 4, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, o := NewRecorder(), &oracle{}
		if len(data) > 0 && data[0] >= 128 {
			r.MaxEvents, o.max = int(data[0]-128), int(data[0]-128)
		}
		var cycle int64
		for i := 1; i+4 <= len(data); i += 4 {
			op, a, b := data[i], data[i+2], data[i+3]
			cycle += int64(data[i+1] % 4)
			p, reason := Proc(a%uint8(NumProcs)), StallReason(a%uint8(NumStallReasons))
			if op%10 == 9 {
				checkAgainst(t, r, o)
			}
			for _, s := range []eventSink{r, o} {
				switch op % 10 {
				case 0:
					s.Issue(cycle, p, int64(b), fuzzName(a, b))
				case 1:
					s.Stall(cycle, reason)
				case 2:
					s.StallSpan(cycle, reason, int64(b%5))
				case 3:
					s.StallN(cycle, reason, int64(b%5))
				case 4:
					s.BusGrant(cycle, p, int64(a), int64(b))
				case 5:
					s.Bypass(cycle, int64(a), int64(b))
				case 6:
					s.Flush(cycle, int64(b))
				case 7, 8:
					s.QueueEvent(cycle, fuzzName(a, b), op%10 == 7, int(b))
				case 9:
					s.Reset()
				}
			}
		}
		checkAgainst(t, r, o)
	})
}
