package sim

import (
	"fmt"
	"strings"

	"decvec/internal/isa"
)

// State encodes the occupation of the three vector resources the paper's §3
// analysis tracks: FU2, FU1 and the memory port (LD). It is a 3-bit mask.
type State uint8

// Bit positions inside State.
const (
	StateLD  State = 1 << 0
	StateFU1 State = 1 << 1
	StateFU2 State = 1 << 2
	// NumStates is the number of distinct states (the 8 bars of Figure 1).
	NumStates = 8
)

// MakeState builds a State from the three busy flags.
func MakeState(fu2, fu1, ld bool) State {
	var s State
	if fu2 {
		s |= StateFU2
	}
	if fu1 {
		s |= StateFU1
	}
	if ld {
		s |= StateLD
	}
	return s
}

// String renders the state as the paper's 3-tuple, e.g. "<FU2, , LD>".
func (s State) String() string {
	part := func(on bool, name string) string {
		if on {
			return name
		}
		return ""
	}
	return fmt.Sprintf("<%s,%s,%s>",
		part(s&StateFU2 != 0, "FU2"),
		part(s&StateFU1 != 0, "FU1"),
		part(s&StateLD != 0, "LD"))
}

// StateStats accumulates, per state, the number of cycles spent in it.
type StateStats struct {
	Cycles [NumStates]int64
}

// Observe adds one cycle in the given state.
// declint:hotpath
func (st *StateStats) Observe(s State) { st.Cycles[s]++ }

// ObserveN adds n cycles in the given state — the bulk form of Observe used
// by the idle-skip fast path, which accounts a whole skipped span at once.
// ObserveN(s, n) is exactly equivalent to n repeated Observe(s) calls; n <= 0
// is a no-op.
// declint:hotpath
func (st *StateStats) ObserveN(s State, n int64) {
	if n <= 0 {
		return
	}
	st.Cycles[s] += n
}

// Total returns the total number of observed cycles.
func (st *StateStats) Total() int64 {
	var t int64
	for _, c := range st.Cycles {
		t += c
	}
	return t
}

// Idle returns the cycles spent in state < , , > — all three units idle.
func (st *StateStats) Idle() int64 { return st.Cycles[0] }

// LDIdle returns the cycles in the four states where the memory port is
// idle; the paper's §3 argues these are the cycles decoupling can reclaim.
func (st *StateStats) LDIdle() int64 {
	var t int64
	for s := State(0); s < NumStates; s++ {
		if s&StateLD == 0 {
			t += st.Cycles[s]
		}
	}
	return t
}

// PeakFP returns the cycles in the two peak floating-point states
// (<FU2,FU1,LD> and <FU2,FU1, >).
func (st *StateStats) PeakFP() int64 {
	return st.Cycles[StateFU2|StateFU1] + st.Cycles[StateFU2|StateFU1|StateLD]
}

// Fraction returns the fraction of cycles spent in state s, or 0 when no
// cycles were observed.
func (st *StateStats) Fraction(s State) float64 {
	t := st.Total()
	if t == 0 {
		return 0
	}
	return float64(st.Cycles[s]) / float64(t)
}

// String summarizes the breakdown, largest states first omitted for
// stability: fixed state order 0..7.
func (st *StateStats) String() string {
	var b strings.Builder
	for s := State(0); s < NumStates; s++ {
		if s > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", s, st.Cycles[s])
	}
	return b.String()
}

// Histogram counts observations of small non-negative integers, clamping
// anything beyond its size into the last bucket. It backs the Figure 6
// busy-slot distributions.
type Histogram struct {
	Buckets []int64
	// Clamped counts observations that exceeded the last bucket.
	Clamped int64
}

// NewHistogram returns a histogram with buckets 0..max.
func NewHistogram(max int) *Histogram {
	if max < 0 {
		panic("sim: negative histogram size")
	}
	return &Histogram{Buckets: make([]int64, max+1)}
}

// Observe adds one observation of value v (v < 0 panics).
// declint:hotpath
func (h *Histogram) Observe(v int) {
	if v < 0 {
		panic("sim: negative histogram observation")
	}
	if v >= len(h.Buckets) {
		h.Clamped++
		v = len(h.Buckets) - 1
	}
	h.Buckets[v]++
}

// ObserveN adds n observations of value v — the bulk form of Observe used by
// the idle-skip fast path (a skipped span repeats one occupancy for its whole
// length). ObserveN(v, n) is exactly equivalent to n repeated Observe(v)
// calls; n <= 0 is a no-op, v < 0 panics.
// declint:hotpath
func (h *Histogram) ObserveN(v int, n int64) {
	if v < 0 {
		panic("sim: negative histogram observation")
	}
	if n <= 0 {
		return
	}
	if v >= len(h.Buckets) {
		h.Clamped += n
		v = len(h.Buckets) - 1
	}
	h.Buckets[v] += n
}

// CloneInto copies h into dst and returns it, reusing dst's storage when the
// bucket counts match (allocating otherwise, including dst == nil). Pooled
// machines use it to hand a caller an independent snapshot of a histogram
// the machine itself will keep mutating on its next run.
func (h *Histogram) CloneInto(dst *Histogram) *Histogram {
	if dst == nil || len(dst.Buckets) != len(h.Buckets) {
		dst = &Histogram{Buckets: make([]int64, len(h.Buckets))}
	}
	copy(dst.Buckets, h.Buckets)
	dst.Clamped = h.Clamped
	return dst
}

// Reset clears every bucket, keeping the bucket storage for reuse.
func (h *Histogram) Reset() {
	for i := range h.Buckets {
		h.Buckets[i] = 0
	}
	h.Clamped = 0
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Buckets {
		t += c
	}
	return t
}

// Max returns the largest value ever observed (clamped to the last bucket),
// or -1 when empty.
func (h *Histogram) Max() int {
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if h.Buckets[i] > 0 {
			return i
		}
	}
	return -1
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	var sum int64
	for v, c := range h.Buckets {
		sum += int64(v) * c
	}
	return float64(sum) / float64(t)
}

// MemTraffic accumulates memory-port traffic in elements, split by kind.
// The §7 bypass saves LoadElems traffic for every bypassed load.
type MemTraffic struct {
	LoadElems  int64 // elements moved memory -> processor
	StoreElems int64 // elements moved processor -> memory
}

// Total returns the total element traffic.
func (t MemTraffic) Total() int64 { return t.LoadElems + t.StoreElems }

// Counts tallies the dynamic instruction mix of a run.
type Counts struct {
	ScalarInsts int64 // scalar instructions (incl. scalar memory, branches)
	VectorInsts int64 // vector instructions
	VectorOps   int64 // operations performed by vector instructions
	BasicBlocks int64 // basic blocks executed
	SpillMemOps int64 // memory instructions marked as spill traffic
	MemInsts    int64 // all memory-accessing instructions
}

// Add tallies one executed instruction.
func (c *Counts) Add(in *isa.Inst) {
	if in.IsVector() {
		c.VectorInsts++
		c.VectorOps += int64(in.VL)
	} else {
		c.ScalarInsts++
	}
	if in.Class.IsMemory() {
		c.MemInsts++
		if in.Spill {
			c.SpillMemOps++
		}
	}
	if in.BBEnd {
		c.BasicBlocks++
	}
}

// Vectorization returns the paper's degree of vectorization: vector
// operations over total operations.
func (c Counts) Vectorization() float64 {
	total := float64(c.ScalarInsts + c.VectorOps)
	if total == 0 {
		return 0
	}
	return float64(c.VectorOps) / total
}

// AvgVL returns the average vector length used by vector instructions.
func (c Counts) AvgVL() float64 {
	if c.VectorInsts == 0 {
		return 0
	}
	return float64(c.VectorOps) / float64(c.VectorInsts)
}

// Result is the outcome of one simulation run.
type Result struct {
	Arch   string // "REF", "DVA" or "BYP"
	Config Config

	// Cycles is the total execution time.
	Cycles int64
	// States is the per-cycle (FU2, FU1, LD) breakdown.
	States StateStats
	// Counts is the dynamic instruction mix that was executed.
	Counts Counts
	// Traffic is the memory-port traffic.
	Traffic MemTraffic

	// AVDQBusy is the per-cycle busy-slot histogram of the vector load data
	// queue (DVA only; nil for REF).
	AVDQBusy *Histogram
	// VADQBusy is the per-cycle busy-slot histogram of the vector store
	// data queue (DVA only; nil for REF).
	VADQBusy *Histogram

	// Bypasses counts loads serviced by the VADQ->AVDQ bypass.
	Bypasses int64
	// BypassedElems is the element traffic those loads avoided.
	BypassedElems int64
	// Flushes counts loads that forced a store-queue drain because of an
	// overlap hazard.
	Flushes int64
	// ScalarCacheHits / Misses count scalar memory accesses by outcome.
	ScalarCacheHits   int64
	ScalarCacheMisses int64

	// Stalls attributes stall cycles to their enumerated causes. For the
	// DVA each entry is a cycle in which that unit could not make progress;
	// for REF it is the cycles the dispatch unit waited before an issue,
	// attributed to the binding hazard.
	Stalls StallCounts

	// Queues summarizes the occupancy of every architectural queue (DVA
	// only; nil for REF, which has no queues).
	Queues []QueueStat
}

// QueueStatNamed returns the stats of the named queue, if present.
func (r *Result) QueueStatNamed(name string) (QueueStat, bool) {
	for _, q := range r.Queues {
		if q.Name == name {
			return q, true
		}
	}
	return QueueStat{}, false
}

// IPC returns executed instructions (scalar + vector) per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Counts.ScalarInsts+r.Counts.VectorInsts) / float64(r.Cycles)
}

// String gives a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d cycles, %.2f IPC, traffic=%d elems",
		r.Arch, r.Cycles, r.IPC(), r.Traffic.Total())
}
