package sim

import (
	"math"
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

// fuzzEdges are the operand and cycle-jump values a fuzz byte of 0xf0 or
// more selects (index byte-0xf0): the int64 extremes; the varint length
// boundaries of the stream encoding, where a zigzag field needs a second
// byte at -65 and 64 and a third at 8192, and a uvarint a second at 128
// and a third at 16384; 2^31, 2^32-1, 2^32 and ±2^62. Stall spans of 127
// or 2^32-1 followed by one more cycle coalesce N across a boundary.
var fuzzEdges = [16]int64{
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	-1, -65, 64, 127, 128, 8192, 16384, 1 << 31, 1<<32 - 1, 1 << 32,
	-(1 << 62), 1 << 62,
}

// fuzzInt maps a fuzz byte to an operand: the byte's value below 0xf0, an
// edge value from 0xf0 on.
func fuzzInt(b byte) int64 {
	if b >= 0xf0 {
		return fuzzEdges[b-0xf0]
	}
	return int64(b)
}

// fuzzSpan maps a fuzz byte to a stall span: 0-4 (so spans often coalesce)
// below 0xf0, an edge value from 0xf0 on.
func fuzzSpan(b byte) int64 {
	if b >= 0xf0 {
		return fuzzEdges[b-0xf0]
	}
	return int64(b % 5)
}

// fuzzAdvance moves the cycle by a fuzz byte: forward by 0-3 below 0x80 (so
// stalls often coalesce), backward by 1-112 from 0x80, and by an edge value,
// wrapping, from 0xf0 on.
func fuzzAdvance(cycle int64, b byte) int64 {
	switch {
	case b >= 0xf0:
		return cycle + fuzzEdges[b-0xf0]
	case b >= 0x80:
		return cycle - int64(b-0x7f)
	}
	return cycle + int64(b%4)
}

// FuzzRecorder drives a Recorder and the oracle through the same call
// sequence and checks that they hold the same stream. The first byte sets
// MaxEvents (below 128: unbounded); each following group of four bytes is
// one call: the method, a cycle move (fuzzAdvance) and two operand bytes.
// The first operand byte is the call's Proc as is, so procs past the
// header's escape value occur, and its stall reason modulo their number;
// seqs, Ns and queue lengths map through fuzzInt, stall spans through
// fuzzSpan.
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
			cycle = fuzzAdvance(cycle, data[i+1])
			p, reason := Proc(a), StallReason(a%uint8(NumStallReasons))
			if op%10 == 9 {
				checkAgainst(t, r, o)
			}
			for _, s := range []eventSink{r, o} {
				switch op % 10 {
				case 0:
					s.Issue(cycle, p, fuzzInt(b), fuzzName(a, b))
				case 1:
					s.Stall(cycle, reason)
				case 2:
					s.StallSpan(cycle, reason, fuzzSpan(b))
				case 3:
					s.StallN(cycle, reason, fuzzSpan(b))
				case 4:
					s.BusGrant(cycle, p, fuzzInt(a), fuzzInt(b))
				case 5:
					s.Bypass(cycle, fuzzInt(a), fuzzInt(b))
				case 6:
					s.Flush(cycle, fuzzInt(b))
				case 7, 8:
					s.QueueEvent(cycle, fuzzName(a, b), op%10 == 7, int(fuzzInt(b)))
				case 9:
					s.Reset()
				}
			}
		}
		checkAgainst(t, r, o)
	})
}
