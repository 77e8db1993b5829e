package sim

import (
	"encoding/binary"
	"sort"
)

// This file is the observability layer shared by the simulators: a typed,
// cycle-stamped event stream (issue, stall, queue push/pop, bus grant,
// bypass, flush) plus the enumerated stall-reason taxonomy that replaces the
// old ad-hoc string-keyed stall map. Recording is strictly passive — a
// machine driven with a nil *Recorder takes the same decisions, produces
// bit-identical results and allocates nothing on the hot path.

// Proc identifies one of the units that can issue work or stall. The DVA has
// four processors plus the store engine; the reference architecture's single
// in-order dispatch unit is ProcREF.
type Proc uint8

// Processors and units.
const (
	ProcFP  Proc = iota // fetch processor (dispatch)
	ProcAP              // address processor
	ProcSP              // scalar processor
	ProcVP              // vector processor
	ProcST              // store engine
	ProcREF             // reference architecture dispatch unit
	NumProcs
)

var procNames = [NumProcs]string{"FP", "AP", "SP", "VP", "ST", "REF"}

// String returns the unit's short name.
func (p Proc) String() string {
	if int(p) < len(procNames) {
		return procNames[p]
	}
	return "?"
}

// StallReason enumerates the distinct causes for which a unit can fail to
// make progress in a cycle. Every reason belongs to exactly one Proc.
type StallReason uint8

// Stall reasons, grouped by processor.
const (
	// Fetch processor.
	StallFPDispatch StallReason = iota // a destination queue lacks room

	// Address processor.
	StallAPFlush      // draining stores after a memory hazard
	StallAPData       // A/S source operand not ready
	StallAPAFBQ       // branch result queue full
	StallAPHazard     // load overlaps a queued store (flush initiated)
	StallAPASDQ       // scalar load data queue full
	StallAPBus        // address bus busy
	StallAPSSAQ       // scalar store address queue full
	StallAPAVDQ       // vector load data queue full
	StallAPVSAQ       // vector store address queue full
	StallAPBypassUnit // bypass unit busy with a previous copy
	StallAPBypassData // bypassable store data not yet in the VADQ

	// Scalar processor.
	StallSPASDQ      // waiting on scalar load data
	StallSPVSDQ      // waiting on a reduction result
	StallSPData      // S source register not ready
	StallSPQueueFull // outbound queue (SADQ/SVDQ/SAAQ) full
	StallSPSFBQ      // branch result queue full

	// Vector processor.
	StallVPAVDQ      // vector load data not yet arrived
	StallVPQMovUnit  // both QMOV units busy
	StallVPDstHazard // WAW/WAR hazard on the destination register
	StallVPData      // vector source register not ready
	StallVPVADQ      // vector store data queue full
	StallVPSVDQ      // scalar operand not yet in the SVDQ
	StallVPVSDQ      // reduction result queue full
	StallVPFU        // no eligible functional unit free

	// Store engine.
	StallSTData // oldest store's data not yet in its data queue
	StallSTBus  // address bus busy

	// Reference architecture: cycles the dispatch unit waited before issue,
	// attributed to the binding hazard.
	StallRefData // source operand (scalar or vector) not ready
	StallRefDst  // destination WAW/WAR hazard
	StallRefFU   // no eligible functional unit free
	StallRefBus  // memory port busy

	NumStallReasons
)

var stallNames = [NumStallReasons]string{
	StallFPDispatch:   "FP.dispatch",
	StallAPFlush:      "AP.flush",
	StallAPData:       "AP.data",
	StallAPAFBQ:       "AP.afbq",
	StallAPHazard:     "AP.hazard",
	StallAPASDQ:       "AP.asdq",
	StallAPBus:        "AP.bus",
	StallAPSSAQ:       "AP.ssaq",
	StallAPAVDQ:       "AP.avdq",
	StallAPVSAQ:       "AP.vsaq",
	StallAPBypassUnit: "AP.bypassUnit",
	StallAPBypassData: "AP.bypassData",
	StallSPASDQ:       "SP.asdq",
	StallSPVSDQ:       "SP.vsdq",
	StallSPData:       "SP.data",
	StallSPQueueFull:  "SP.queueFull",
	StallSPSFBQ:       "SP.sfbq",
	StallVPAVDQ:       "VP.avdq",
	StallVPQMovUnit:   "VP.qmovUnit",
	StallVPDstHazard:  "VP.dstHazard",
	StallVPData:       "VP.data",
	StallVPVADQ:       "VP.vadq",
	StallVPSVDQ:       "VP.svdq",
	StallVPVSDQ:       "VP.vsdq",
	StallVPFU:         "VP.fu",
	StallSTData:       "ST.data",
	StallSTBus:        "ST.bus",
	StallRefData:      "REF.data",
	StallRefDst:       "REF.dstHazard",
	StallRefFU:        "REF.fu",
	StallRefBus:       "REF.bus",
}

var stallProcs = [NumStallReasons]Proc{
	StallFPDispatch:   ProcFP,
	StallAPFlush:      ProcAP,
	StallAPData:       ProcAP,
	StallAPAFBQ:       ProcAP,
	StallAPHazard:     ProcAP,
	StallAPASDQ:       ProcAP,
	StallAPBus:        ProcAP,
	StallAPSSAQ:       ProcAP,
	StallAPAVDQ:       ProcAP,
	StallAPVSAQ:       ProcAP,
	StallAPBypassUnit: ProcAP,
	StallAPBypassData: ProcAP,
	StallSPASDQ:       ProcSP,
	StallSPVSDQ:       ProcSP,
	StallSPData:       ProcSP,
	StallSPQueueFull:  ProcSP,
	StallSPSFBQ:       ProcSP,
	StallVPAVDQ:       ProcVP,
	StallVPQMovUnit:   ProcVP,
	StallVPDstHazard:  ProcVP,
	StallVPData:       ProcVP,
	StallVPVADQ:       ProcVP,
	StallVPSVDQ:       ProcVP,
	StallVPVSDQ:       ProcVP,
	StallVPFU:         ProcVP,
	StallSTData:       ProcST,
	StallSTBus:        ProcST,
	StallRefData:      ProcREF,
	StallRefDst:       ProcREF,
	StallRefFU:        ProcREF,
	StallRefBus:       ProcREF,
}

// String returns the canonical "Proc.cause" name of the reason.
func (r StallReason) String() string {
	if int(r) < len(stallNames) {
		return stallNames[r]
	}
	return "stall?"
}

// Proc returns the unit the reason belongs to.
func (r StallReason) Proc() Proc {
	if int(r) < len(stallProcs) {
		return stallProcs[r]
	}
	return NumProcs
}

// StallCounts is the per-reason stall-cycle accumulator of a run. Indexing
// by StallReason is allocation-free, so the simulators can count stalls
// unconditionally.
type StallCounts [NumStallReasons]int64

// Add accumulates n stall cycles for the reason.
// declint:hotpath
func (s *StallCounts) Add(r StallReason, n int64) { s[r] += n }

// Total returns the stall cycles summed over all reasons.
func (s *StallCounts) Total() int64 {
	var t int64
	for _, c := range s {
		t += c
	}
	return t
}

// ProcTotal returns the stall cycles summed over the reasons of one unit.
func (s *StallCounts) ProcTotal(p Proc) int64 {
	var t int64
	for r, c := range s {
		if StallReason(r).Proc() == p {
			t += c
		}
	}
	return t
}

// StallCount pairs a reason with its cycle count, for sorted reports.
type StallCount struct {
	Reason StallReason
	Cycles int64
}

// Nonzero returns the reasons with at least one stall cycle, most cycles
// first (ties broken by reason order, so output is deterministic).
func (s *StallCounts) Nonzero() []StallCount {
	var out []StallCount
	for r, c := range s {
		if c > 0 {
			out = append(out, StallCount{Reason: StallReason(r), Cycles: c})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// QueueStat is the occupancy summary of one architectural queue over a run.
type QueueStat struct {
	Name   string // queue name (AVDQ, VSAQ, ...)
	Cap    int    // capacity in entries
	Pushes int64  // lifetime successful pushes
	Pops   int64  // lifetime pops
	Peak   int    // maximum occupancy ever observed
	// MeanLen is the time-averaged occupancy in entries.
	MeanLen float64
	// FullCycles is the number of cycles the queue spent completely full —
	// the back-pressure metric: producers may have stalled during them.
	FullCycles int64
}

// Pressure returns the mean occupancy as a fraction of capacity.
func (q QueueStat) Pressure() float64 {
	if q.Cap == 0 {
		return 0
	}
	return q.MeanLen / float64(q.Cap)
}

// EventKind enumerates the event types of the trace stream.
type EventKind uint8

// Event kinds.
const (
	EvIssue     EventKind = iota // a unit issued an instruction or uop
	EvStall                      // a unit could not make progress (N cycles)
	EvQueuePush                  // an entry entered a queue (N = new length)
	EvQueuePop                   // an entry left a queue (N = new length)
	EvBusGrant                   // the address bus was granted for N cycles
	EvBypass                     // a load was serviced by the VADQ->AVDQ bypass
	EvFlush                      // a load hazard forced a store-queue drain
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"issue", "stall", "push", "pop", "bus", "bypass", "flush",
}

// String returns the kind's short name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "event?"
}

// Event is one cycle-stamped occurrence in a machine. Which fields are
// meaningful depends on Kind:
//
//	EvIssue:     Proc, Seq, Label (instruction class or uop name)
//	EvStall:     Proc, Reason, N (consecutive stalled cycles, coalesced)
//	EvQueuePush: Queue, N (occupancy after the push)
//	EvQueuePop:  Queue, N (occupancy after the pop)
//	EvBusGrant:  Proc (requester), Seq, N (cycles reserved)
//	EvBypass:    Seq (load), N (vector length copied)
//	EvFlush:     Proc, Seq (youngest store drained for)
type Event struct {
	Cycle  int64
	Kind   EventKind
	Proc   Proc
	Reason StallReason
	Queue  string
	Seq    int64
	N      int64
	Label  string
}

// Recorder collects the event stream of one run. A nil *Recorder is the
// disabled state: every method is nil-receiver safe and returns immediately,
// so the simulators call them unconditionally.
//
// Consecutive stalls of the same reason are coalesced into a single event
// whose N grows, which keeps long waits (a 100-cycle memory latency) from
// bloating the stream.
//
// Events are stored as variable-length records in one append-only byte
// stream held in fixed chunks of chunkBytes, so a growing stream never
// copies what it already holds and a reset recorder reuses its chunks. A
// record starts with a header byte, kind in bits 0-2 and proc in bits 3-5
// (procEscape there puts the proc in the next byte), followed by the cycle
// as a zigzag varint delta from the previous record's cycle, signed since
// stall settlement emits earlier cycles, and then only the fields its kind
// carries (see kindFields): an
// interned name index as a uvarint, the seq as a zigzag varint delta from
// the previous seq, N as a zigzag varint. A stall record instead carries its
// reason byte and N as a fixed little-endian 8-byte field, so coalescing
// patches N in place, in any chunk. Each and Events decode the records back
// into Events.
type Recorder struct {
	// MaxEvents bounds the stored stream; 0 means unlimited. Events beyond
	// the bound are counted in Dropped instead of stored. Stall coalescing
	// into already-stored events continues even at the bound.
	MaxEvents int
	// Dropped counts events discarded because of MaxEvents.
	Dropped int64

	// chunks[:nChunks] hold the stream, each chunk's records in
	// chunks[i][:len]; a record never straddles two chunks. Chunks past
	// nChunks are kept from before a Reset.
	chunks  [][]byte
	nChunks int
	n       int                // stored events
	counts  [NumEventKinds]int // stored events per kind
	// cycle and seq are the values the next record's deltas are taken from.
	cycle, seq int64
	// lastStall[r] locates the most recent EvStall record of reason r, used
	// to coalesce consecutive stalled cycles.
	lastStall [NumStallReasons]stallTail

	// names is an open-addressed table of interned names, hashed into
	// positions 1 to nameSlots: a name's index is its position, and position
	// 0 holds "", index 0. It holds at most nameCap names, so the static
	// queue and instruction-class names intern without allocating.
	names  [nameSlots + 1]string
	nNames int
	// more holds the names interned once names is at capacity (index
	// nameSlots+1+i) and moreIdx finds them.
	more    []string
	moreIdx map[string]uint32
}

// stallTail locates a coalescable stall record: pos is the stream offset
// (chunk*chunkBytes + offset) of its 8-byte N, 0 when there is none, and end
// is its Cycle+N, the cycle a contiguous stall starts at.
type stallTail struct {
	pos int
	end int64
}

// The fields a record carries after its header and cycle delta, by kind.
const (
	fName = 1 << iota // interned Queue or Label index
	fSeq              // Seq delta
	fN                // N
)

var kindFields = [NumEventKinds]uint8{
	EvIssue:     fName | fSeq,
	EvQueuePush: fName | fN,
	EvQueuePop:  fName | fN,
	EvBusGrant:  fSeq | fN,
	EvBypass:    fSeq | fN,
	EvFlush:     fSeq,
	// EvStall carries a reason byte and a fixed 8-byte N instead.
}

const (
	// chunkBytes is the size of one storage chunk.
	chunkBytes = 64 << 10
	// maxRecord bounds a record's length: a header, an escaped proc byte and
	// three 64-bit varints (a bus grant's cycle, seq and N). A record is
	// started in a new chunk when less room than this is left.
	maxRecord = 2 + 3*binary.MaxVarintLen64
	// procEscape in a header's proc bits means the proc follows as a byte.
	procEscape = 7
	// nameSlots is the number of hashed positions in the interned-name
	// table. It is filled to nameCap names at most, so a probe soon meets
	// an empty position.
	nameSlots = 128
	nameCap   = nameSlots / 2
)

// NewRecorder returns an empty, unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset empties the recorder for reuse, keeping MaxEvents and the event
// storage. A reset recorder records exactly like a fresh one.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.Dropped = 0
	r.nChunks, r.n, r.counts = 0, 0, [NumEventKinds]int{}
	r.cycle, r.seq = 0, 0
	r.lastStall = [NumStallReasons]stallTail{}
	r.names, r.nNames = [nameSlots + 1]string{}, 0
	r.more = r.more[:0]
	clear(r.moreIdx)
}

// Enabled reports whether the recorder is collecting (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Each calls fn on every stored event in emission order. It walks the
// stream without copying it: every record is decoded into one Event the
// walk reuses, so the *Event is valid only during fn's call and a caller
// that keeps an event must copy it.
func (r *Recorder) Each(fn func(*Event)) {
	if r == nil {
		return
	}
	var e Event
	var cycle, seq, d int64
	var x uint64
	for _, c := range r.chunks[:r.nChunks] {
		for i := 0; i < len(c); {
			h := c[i]
			e.Kind, e.Proc = EventKind(h&7), Proc(h>>3)
			if e.Proc == procEscape {
				e.Proc = Proc(c[i+1])
				i++
			}
			d, i = varint(c, i+1)
			cycle += d
			e.Cycle, e.Reason, e.Queue, e.Label, e.Seq, e.N = cycle, 0, "", "", 0, 0
			if e.Kind == EvStall {
				e.Reason = StallReason(c[i])
				e.N = int64(binary.LittleEndian.Uint64(c[i+1:]))
				i += 9
			} else {
				f := kindFields[e.Kind]
				if f&fName != 0 {
					x, i = uvarint(c, i)
					if e.Kind == EvIssue {
						e.Label = r.name(uint32(x))
					} else {
						e.Queue = r.name(uint32(x))
					}
				}
				if f&fSeq != 0 {
					d, i = varint(c, i)
					seq += d
					e.Seq = seq
				}
				if f&fN != 0 {
					e.N, i = varint(c, i)
				}
			}
			fn(&e)
		}
	}
}

// uvarint decodes the uvarint at b[i:] and returns it and the offset past
// it. The stream is the recorder's own, so the encoding is not validated:
// binary.Uvarint's overflow checks and reslicing doubled a walk's cost.
func uvarint(b []byte, i int) (uint64, int) {
	x := uint64(b[i])
	if x < 0x80 {
		return x, i + 1
	}
	x &= 0x7f
	for s := uint(7); ; s += 7 {
		i++
		c := b[i]
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			return x, i + 1
		}
	}
}

// varint decodes the zigzag varint at b[i:], as binary.AppendVarint wrote
// it, and returns it and the offset past it.
func varint(b []byte, i int) (int64, int) {
	ux, i := uvarint(b, i)
	return int64(ux>>1) ^ -int64(ux&1), i
}

// Events returns a copy of the recorded stream in emission order, flattened
// into one slice (nil when nothing is stored). Walking the stream with Each
// avoids the copy.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, 0, r.n)
	r.Each(func(e *Event) { out = append(out, *e) })
	return out
}

// Len returns the number of stored events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Count returns the number of stored events of one kind.
func (r *Recorder) Count(k EventKind) int64 {
	if r == nil || k >= NumEventKinds {
		return 0
	}
	return int64(r.counts[k])
}

// intern returns the index of name, adding the name if it is new. It finds
// the name by FNV-1a hash and linear probing, and allocates only once the
// table holds nameCap names.
func (r *Recorder) intern(name string) uint32 {
	if name == "" {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	for p := 1 + h%nameSlots; ; p = 1 + p%nameSlots {
		if r.names[p] == name {
			return p
		}
		if r.names[p] != "" {
			continue
		}
		if r.nNames == nameCap {
			return r.internMore(name)
		}
		r.names[p] = name
		r.nNames++
		return p
	}
}

// internMore finds or adds a name that found the table at capacity.
func (r *Recorder) internMore(name string) uint32 {
	if idx, ok := r.moreIdx[name]; ok {
		return idx
	}
	if r.moreIdx == nil {
		r.moreIdx = make(map[string]uint32)
	}
	r.more = append(r.more, name)
	idx := uint32(nameSlots + len(r.more))
	r.moreIdx[name] = idx
	return idx
}

// name returns the interned name with index idx.
func (r *Recorder) name(idx uint32) string {
	if idx <= nameSlots {
		return r.names[idx]
	}
	return r.more[idx-nameSlots-1]
}

// full reports whether the MaxEvents bound forbids storing another event.
func (r *Recorder) full() bool { return r.MaxEvents > 0 && r.n >= r.MaxEvents }

// begin counts a new event of kind k and starts its record: it returns the
// open chunk with the header and cycle delta appended, moving to the next
// chunk first when the open one has less than maxRecord bytes of room. The
// caller appends the kind's fields and stores the chunk back with end.
func (r *Recorder) begin(k EventKind, p Proc, cycle int64) []byte {
	if r.nChunks == 0 || cap(r.chunks[r.nChunks-1])-len(r.chunks[r.nChunks-1]) < maxRecord {
		if r.nChunks == len(r.chunks) {
			r.chunks = append(r.chunks, make([]byte, 0, chunkBytes))
		}
		r.chunks[r.nChunks] = r.chunks[r.nChunks][:0]
		r.nChunks++
	}
	r.n++
	r.counts[k]++
	b := r.chunks[r.nChunks-1]
	if p < procEscape {
		b = append(b, byte(k)|byte(p)<<3)
	} else {
		b = append(b, byte(k)|procEscape<<3, byte(p))
	}
	b = binary.AppendVarint(b, cycle-r.cycle)
	r.cycle = cycle
	return b
}

// end stores the open chunk b back after a record was appended to it.
func (r *Recorder) end(b []byte) { r.chunks[r.nChunks-1] = b }

// record stores one event of a kind other than EvStall, encoding the fields
// kindFields lists for it, or counts it as dropped at the MaxEvents bound.
func (r *Recorder) record(k EventKind, p Proc, cycle, seq, n int64, name uint32) {
	if r.full() {
		r.Dropped++
		return
	}
	b := r.begin(k, p, cycle)
	f := kindFields[k]
	if f&fName != 0 {
		b = binary.AppendUvarint(b, uint64(name))
	}
	if f&fSeq != 0 {
		b = binary.AppendVarint(b, seq-r.seq)
		r.seq = seq
	}
	if f&fN != 0 {
		b = binary.AppendVarint(b, n)
	}
	r.end(b)
}

// stall stores a stall record of n cycles and returns the stream offset of
// its N, or 0 when the MaxEvents bound dropped it.
func (r *Recorder) stall(cycle int64, reason StallReason, n int64) int {
	if r.full() {
		r.Dropped++
		return 0
	}
	b := append(r.begin(EvStall, reason.Proc(), cycle), byte(reason))
	pos := (r.nChunks-1)*chunkBytes + len(b)
	r.end(binary.LittleEndian.AppendUint64(b, uint64(n)))
	return pos
}

// Issue records that proc issued the instruction with sequence number seq.
// label should be a static string (an instruction class or uop name).
func (r *Recorder) Issue(cycle int64, p Proc, seq int64, label string) {
	if r == nil {
		return
	}
	r.record(EvIssue, p, cycle, seq, 0, r.intern(label))
}

// Stall records one stalled cycle for the reason, coalescing runs of
// consecutive cycles into a single event.
func (r *Recorder) Stall(cycle int64, reason StallReason) {
	if r == nil {
		return
	}
	r.stallSpan(cycle, reason, 1)
}

// StallSpan records n consecutive stalled cycles starting at cycle as a
// single span, coalescing with the reason's most recent stall event when the
// span is contiguous with it. It is the bulk emitter of the DVA wake wheel:
// a unit that slept repeated its last stall on every slept cycle, and
// settling that debt with StallSpan extends the event the unit recorded
// before sleeping, so the stream stays bit-identical to the per-cycle
// (SlowTick) mode, which coalesces the same cycles one at a time. The only
// divergence is the Dropped counter of a bounded recorder, which counts one
// discarded span instead of n discarded cycles.
func (r *Recorder) StallSpan(cycle int64, reason StallReason, n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.stallSpan(cycle, reason, n)
}

// stallSpan is StallSpan past its argument checks: it adds n to the
// reason's last stall record in place when the span continues it, and
// stores a new coalescable record otherwise.
func (r *Recorder) stallSpan(cycle int64, reason StallReason, n int64) {
	t := &r.lastStall[reason]
	if t.pos > 0 && t.end == cycle {
		b := r.chunks[t.pos/chunkBytes][t.pos%chunkBytes:]
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+uint64(n))
		t.end += n
		return
	}
	if pos := r.stall(cycle, reason, n); pos > 0 {
		*t = stallTail{pos: pos, end: cycle + n}
	}
}

// StallN records n consecutive stalled cycles starting at cycle (used by the
// reference simulator, which computes waits in closed form).
func (r *Recorder) StallN(cycle int64, reason StallReason, n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.stall(cycle, reason, n)
}

// BusGrant records that proc reserved the address bus for n cycles.
func (r *Recorder) BusGrant(cycle int64, p Proc, seq, n int64) {
	if r == nil {
		return
	}
	r.record(EvBusGrant, p, cycle, seq, n, 0)
}

// Bypass records a load serviced by the VADQ->AVDQ bypass unit.
func (r *Recorder) Bypass(cycle, seq, vl int64) {
	if r == nil {
		return
	}
	r.record(EvBypass, ProcAP, cycle, seq, vl, 0)
}

// Flush records a hazard-forced store-queue drain; seq is the youngest
// store that must reach memory.
func (r *Recorder) Flush(cycle, seq int64) {
	if r == nil {
		return
	}
	r.record(EvFlush, ProcAP, cycle, seq, 0, 0)
}

// QueueEvent records a push or pop with the queue's new length. It
// implements the queue package's Observer interface.
func (r *Recorder) QueueEvent(cycle int64, name string, push bool, newLen int) {
	if r == nil {
		return
	}
	k := EvQueuePop
	if push {
		k = EvQueuePush
	}
	r.record(k, 0, cycle, 0, int64(newLen), r.intern(name))
}
