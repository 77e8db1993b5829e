package dva

import (
	"fmt"
	"strings"

	"decvec/internal/disamb"

	"decvec/internal/isa"
	"decvec/internal/mem"
	"decvec/internal/queue"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// machine is the complete state of one decoupled-architecture simulation.
type machine struct {
	cfg sim.Config
	now int64
	// The bus, cache, and the architectural queues below are embedded by
	// value: every per-cycle probe then indexes into the one machine
	// allocation instead of chasing a pointer per structure.
	bus   mem.Bus
	cache mem.Cache

	// Fetch processor: the trace replays through its shared predecoded
	// dispatch plan; plan.insts[planPos] is the next instruction to
	// dispatch.
	plan    *dispatchPlan
	planPos int

	// Instruction queues.
	apIQ, spIQ, vpIQ queue.Q[uop]
	// Vector data queues.
	avdq, vadq queue.Q[vslot]
	// Scalar data queues.
	asdq, sadq, svdq, vsdq, saaq queue.Q[sslot]
	// Store address queues.
	ssaq, vsaq queue.Q[storeAddr]
	// Branch result queues back to the FP.
	afbq, sfbq queue.Q[int64]

	// Address processor.
	aReady          [isa.NumARegs]int64
	flushWaitSeq    int64 // -1 when not draining for a hazard
	bypassBusyUntil int64
	// psScratch is reused by pendingStores to avoid per-issue allocation.
	psScratch []disamb.PendingStore
	// disambSeq/disambVer/disambRes cache the last disambiguation verdict.
	// Check is a pure function of the load and the visible store-queue
	// entries, so the verdict holds while the load (disambSeq) and the store
	// queues' operation counters (disambVer) are unchanged — a load stalled
	// on the bus re-checks for free. disambOK additionally requires that the
	// cached check saw every queued entry (none still in its visibility
	// delay), since those become visible on a later cycle without any
	// counter movement.
	disambSeq int64
	disambVer int64
	disambRes disamb.Conflict
	disambOK  bool

	// Store engine (performs queued stores behind the AP's back).
	storeActive   bool
	storeIsVector bool
	storeDoneAt   int64

	// Scalar processor.
	sReady [isa.NumSRegs]int64

	// Vector processor.
	vRegs    [isa.NumVRegs]vreg
	fu1Busy  int64
	fu2Busy  int64
	qmovBusy []int64
	// drains is a fixed ring of in-flight AVDQ→V-register QMOV completions,
	// FIFO by drainHead/drainLen. Every drain owns the AVDQ slot it is
	// emptying, so occupancy is bounded by the AVDQ capacity and the ring
	// never reallocates (a plain append/reslice pair here was the dominant
	// allocation of a recorder-off run).
	drains    []drain
	drainHead int
	drainLen  int

	// Measurements.
	states   sim.StateStats
	traffic  sim.MemTraffic
	avdqHist *sim.Histogram
	vadqHist *sim.Histogram
	bypasses int64
	bypElems int64
	flushes  int64
	stalls   sim.StallCounts
	// rec is the optional event recorder; nil when disabled. Recording is
	// strictly passive and never influences a timing decision.
	rec *sim.Recorder

	lastProgress int64
	// cycleStalls[:nCycleStalls] lists the stall reasons emitted by the units
	// that stepped during the current cycle, in emission order. The run loop
	// tallies them once per cycle, and the wake wheel caches each unit's
	// share as the reasons it owes for every cycle it then sleeps. A fixed
	// array, so the hot stall() path is two stores instead of an append.
	cycleStalls  [8]sim.StallReason
	nCycleStalls int32
	// mutated marks a cycle that changed machine state without making
	// progress (hazard-flush initiation). The cycle after such a mutation
	// stalls differently, so it must not seed an idle skip.
	mutated bool
	// dispBlocked marks the fetch processor as capacity-blocked: its pending
	// instruction found an instruction queue too full. Only an IQ pop can
	// change that verdict, so popIQ raises iqFreed and the blocked dispatch
	// skips its table and capacity loads until then (see dispatchPlanned).
	dispBlocked bool
	iqFreed     bool
	// drainBusy caches the tail busy-horizon computed by finished() once the
	// trace and queues have fully drained (nothing can make progress after
	// that); -1 until then. Near-drain cycles then cost one comparison
	// instead of rechecking all 14 queues and the register scoreboards.
	drainBusy int64

	// Wake wheel (fast path; see sched.go). stallCache[u][:stallN[u]] holds
	// the stall reasons a sleeping unit owes for every slept cycle.
	wheel      sim.Wheel
	stallCache [numUnits][2]sim.StallReason
	stallN     [numUnits]int8
	// lastStep[u] is the cycle unit u last stepped at; the fast path uses it
	// to settle a woken unit's slept-cycle stalls in one multiplication and
	// one recorder span instead of replaying them per cycle (see settleStall).
	lastStep [numUnits]int64
	// progressCount counts progress() calls; tickUnit diffs it across one
	// step to detect that the unit acted (a store start, for instance,
	// progresses without any queue movement).
	progressCount int64
}

// drainFront returns a pointer to the oldest in-flight drain. Callers check
// drainLen > 0 first.
func (m *machine) drainFront() *drain {
	return &m.drains[m.drainHead]
}

// pushDrain enqueues a drain completion. The ring is sized to the AVDQ, and
// every drain holds an AVDQ slot, so overflow is impossible by construction.
// The drain unit's wake time is maintained here (the one cross-unit event
// with no queue mutation to raise a dirty bit): a completion can only
// tighten it, never loosen it.
func (m *machine) pushDrain(d drain) {
	i := m.drainHead + m.drainLen
	if i >= len(m.drains) {
		i -= len(m.drains)
	}
	m.drains[i] = d
	m.drainLen++
	m.wheel.WakeBy(uDrain, d.doneAt)
}

// popDrain retires the oldest in-flight drain.
func (m *machine) popDrain() {
	if m.drainHead++; m.drainHead >= len(m.drains) {
		m.drainHead = 0
	}
	m.drainLen--
}

// Run simulates the trace on the decoupled vector architecture under cfg
// (set cfg.Bypass for the §7 bypass variant) and returns the measured
// result. It returns an error for invalid configurations or if the machine
// deadlocks, which would indicate a malformed trace.
func Run(src *trace.Slice, cfg sim.Config) (*sim.Result, error) {
	return RunRecorded(src, cfg, nil)
}

// RunRecorded is Run with an optional event recorder. Recording is passive:
// the returned result is bit-identical to a run with rec nil; the recorder
// additionally collects the cycle-stamped event stream (issues, stalls,
// queue pushes/pops, bus grants, bypasses, flushes).
func RunRecorded(src *trace.Slice, cfg sim.Config, rec *sim.Recorder) (*sim.Result, error) {
	var r Runner
	res := new(sim.Result)
	if err := r.RunRecordedInto(res, src, cfg, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// queueMeta is the statistics surface every architectural queue exposes,
// independent of its element type.
type queueMeta interface {
	Name() string
	Cap() int
	Pushes() int64
	Pops() int64
	PeakLen() int
	MeanLen(now int64) float64
	FullCycles(now int64) int64
	SetObserver(queue.Observer)
}

// allQueues lists every architectural queue of the machine.
func (m *machine) allQueues() []queueMeta {
	return []queueMeta{
		&m.apIQ, &m.spIQ, &m.vpIQ,
		&m.avdq, &m.vadq,
		&m.asdq, &m.sadq, &m.svdq, &m.vsdq, &m.saaq,
		&m.ssaq, &m.vsaq,
		&m.afbq, &m.sfbq,
	}
}

func (m *machine) progress() {
	m.lastProgress = m.now
	m.progressCount++
}

// declint:hotpath
func (m *machine) run() error {
	window := m.cfg.DeadlockWindow(16)
	fast := !m.cfg.SlowTick
	for {
		m.nCycleStalls = 0
		m.mutated = false
		// Loads normally have first claim on the address bus (they sit on
		// the critical path; stores never stall the processor, §4.2). The
		// store engine gets priority when the store queues are under
		// pressure, so a long load streak cannot starve stores into
		// overflowing their queues. The unit order is identical in both
		// modes; the fast path merely replaces each step call with a wake-
		// wheel tick that leaves the unit asleep, owing its cached stalls,
		// when nothing it reads has changed (see sched.go).
		if fast {
			m.tickUnit(uFP)
			if m.storePressure() {
				m.tickUnit(uST)
				m.tickUnit(uAP)
			} else {
				m.tickUnit(uAP)
				m.tickUnit(uST)
			}
			m.tickUnit(uSP)
			m.tickUnit(uVP)
			if m.drainLen > 0 {
				m.tickUnit(uDrain)
			}
			// Queue entries pushed this cycle become visible next cycle,
			// so their consumers' next-cycle bits become current-cycle bits.
			m.wheel.Fold()
		} else {
			m.stepFetch()
			if m.storePressure() {
				m.stepStoreEngine()
				m.stepAP()
			} else {
				m.stepAP()
				m.stepStoreEngine()
			}
			m.stepSP()
			m.stepVP()
			m.completeDrains()
		}
		// Batched counterpart of stall(): one pass tallies the cycle's stall
		// reasons, before finished() so a terminal cycle still counts.
		for _, r := range m.cycleStalls[:m.nCycleStalls] {
			m.stalls[r]++
		}
		if m.finished() {
			if fast {
				m.settleStallDebt()
			}
			return nil
		}
		m.sample()
		progressed := m.lastProgress == m.now
		m.now++
		if progressed {
			continue
		}
		// The machine may step through deadline without progress; the
		// cycle after it is a deadlock, in both modes (see sim.Wheel).
		deadline := m.lastProgress + window
		if m.now > deadline {
			return &sim.DeadlockError{Core: "DVA", Cycle: m.now, LastProgress: m.lastProgress, Window: window, State: m.dumpState()}
		}
		// Idle-skip fast path: the cycle just simulated made no progress and
		// mutated nothing, so no queue moved (every queue mutation lives
		// inside a progressing step), every dirty bit is clear, and every
		// unit verifiably sleeps past m.now — the machine repeats the same
		// cycle verbatim until the earliest wake time. Jump there in one
		// step, accounting the skipped span in bulk. SlowTick keeps the
		// plain per-cycle loop as the reference mode the equivalence suite
		// checks this path against.
		if fast && !m.mutated {
			if h := m.nextWake(deadline); h > m.now {
				m.skipTo(h)
			}
		}
	}
}

// skipTo bulk-accounts the idle span [m.now, h) and jumps m.now to h. During
// the span every cycle repeats the cycle just simulated: the (FU2, FU1, LD)
// state and the data-queue occupancies are constant. Its stalls need no
// accounting here: every unit sleeps across the span, and stall-debt
// settlement charges each one's cached reasons for the whole sleep when it
// next steps (tickUnit) or at end of run (settleStallDebt). The queues' own
// occupancy integrals accumulate lazily from timestamped push/pop deltas, so
// a time jump composes exactly.
func (m *machine) skipTo(h int64) {
	n := h - m.now
	fu2 := m.now < m.fu2Busy
	fu1 := m.now < m.fu1Busy
	ld := m.bus.BusyAt(m.now)
	m.states.ObserveN(sim.MakeState(fu2, fu1, ld), n)
	m.avdqHist.ObserveN(m.avdq.Len(), n)
	m.vadqHist.ObserveN(m.vadq.Len(), n)
	m.now = h
}

// finished reports whether the trace, every queue and every unit has
// drained. Once the trace is dispatched and every queue is empty no step
// can ever make progress again, so the in-flight tail busy-horizon is
// computed once and cached in drainBusy; the remaining near-drain cycles
// then cost a single comparison instead of rechecking 14 queues and the
// register scoreboards.
func (m *machine) finished() bool {
	if m.drainBusy < 0 {
		if m.planPos < len(m.plan.insts) {
			return false
		}
		for _, e := range [...]bool{
			m.apIQ.Empty(), m.spIQ.Empty(), m.vpIQ.Empty(),
			m.avdq.Empty(), m.vadq.Empty(),
			m.asdq.Empty(), m.sadq.Empty(), m.svdq.Empty(), m.vsdq.Empty(), m.saaq.Empty(),
			m.ssaq.Empty(), m.vsaq.Empty(),
			m.afbq.Empty(), m.sfbq.Empty(),
		} {
			if !e {
				return false
			}
		}
		if m.storeActive || m.drainLen > 0 {
			return false
		}
		m.drainBusy = m.tailBusy()
	}
	return m.now >= m.drainBusy
}

// tailBusy returns the cycle by which all in-flight pipeline work has
// retired; the drained machine runs until then.
func (m *machine) tailBusy() int64 {
	busy := max64(m.fu1Busy, m.fu2Busy)
	for _, q := range m.qmovBusy {
		busy = max64(busy, q)
	}
	busy = max64(busy, m.bus.FreeCycle())
	busy = max64(busy, m.bypassBusyUntil)
	for _, r := range m.aReady {
		busy = max64(busy, r)
	}
	for _, r := range m.sReady {
		busy = max64(busy, r)
	}
	for i := range m.vRegs {
		busy = max64(busy, m.vRegs[i].writeReady)
	}
	return busy
}

// sample records the per-cycle measurements: the (FU2, FU1, LD) state and
// the data-queue occupancies.
func (m *machine) sample() {
	fu2 := m.now < m.fu2Busy
	fu1 := m.now < m.fu1Busy
	ld := m.bus.BusyAt(m.now)
	m.states.Observe(sim.MakeState(fu2, fu1, ld))
	m.avdqHist.Observe(m.avdq.Len())
	m.vadqHist.Observe(m.vadq.Len())
}

// stall accounts one cycle in which a unit could not make progress and,
// when recording, emits the matching event. The reason is noted in
// cycleStalls; the run loop batches the counter increments once per cycle
// (keeping this, the most-called function of the stalled phases, under the
// inlining budget), and a unit that goes to sleep on the stall owes the same
// reason for every slept cycle (see settleStall).
func (m *machine) stall(r sim.StallReason) {
	m.cycleStalls[m.nCycleStalls] = r
	m.nCycleStalls++
	if m.rec != nil {
		m.rec.Stall(m.now, r)
	}
}

// popIQ pops one instruction-queue entry, raising the flag a capacity-blocked
// fetch dispatch waits on. All three instruction queues pop through here.
func (m *machine) popIQ(q *queue.Q[uop]) {
	q.Pop(m.now)
	m.iqFreed = true
}

// storePressure reports whether either store address queue is at least
// half full, at which point queued stores outrank new loads for the bus.
// This pressure threshold is the machine's load/store bus arbitration:
// loads normally have absolute priority (they sit on the critical path;
// stores never stall the processor, §4.2), and the priority flip bounds how
// far a long load streak can back the store queues up — see
// TestLoadStreakCannotStarveStores for the guarantee.
func (m *machine) storePressure() bool {
	return m.vsaq.Len()*2 >= m.vsaq.Cap() || m.ssaq.Len()*2 >= m.ssaq.Cap()
}

// dumpState summarizes machine state for deadlock diagnostics.
func (m *machine) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dispatched=%d/%d ", m.planPos, len(m.plan.insts))
	if m.planPos < len(m.plan.insts) {
		fmt.Fprintf(&b, "pendingInst=%s ", m.plan.insts[m.planPos].String())
	}
	for _, q := range [...]fmt.Stringer{&m.apIQ, &m.spIQ, &m.vpIQ, &m.avdq, &m.vadq,
		&m.asdq, &m.sadq, &m.svdq, &m.vsdq, &m.saaq, &m.ssaq, &m.vsaq} {
		fmt.Fprintf(&b, "%s ", q)
	}
	fmt.Fprintf(&b, "flushWait=%d storeActive=%v drains=%d", m.flushWaitSeq, m.storeActive, m.drainLen)
	if u, ok := m.apIQ.Peek(m.now); ok {
		fmt.Fprintf(&b, " apHead={%s %s}", u.kind, u.in.String())
	}
	if u, ok := m.spIQ.Peek(m.now); ok {
		fmt.Fprintf(&b, " spHead={%s %s}", u.kind, u.in.String())
	}
	if u, ok := m.vpIQ.Peek(m.now); ok {
		fmt.Fprintf(&b, " vpHead={%s %s}", u.kind, u.in.String())
	}
	return b.String()
}
