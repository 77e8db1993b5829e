package dva

import (
	"fmt"

	"decvec/internal/disamb"
	"decvec/internal/isa"
	"decvec/internal/queue"
	"decvec/internal/sim"
	"decvec/internal/trace"
)

// Runner is a reusable DVA/BYP simulation arena: one machine's worth of
// queues, scoreboards, scratch slices and histograms kept alive across runs.
// A zero Runner is ready to use; the first run allocates a zero machine and
// wires its queues, and every run resets it in place (see the Reset contract
// in internal/sim/arena.go), so a recorder-off steady-state run performs no
// heap allocation. A Runner
// is not safe for concurrent use; pool idle Runners in a sim.RunPool.
type Runner struct {
	m *machine
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner { return &Runner{} }

// Run simulates the trace under cfg on the pooled machine and returns a
// freshly allocated result (safe to retain; never aliases Runner state).
func (r *Runner) Run(src *trace.Slice, cfg sim.Config) (*sim.Result, error) {
	res := new(sim.Result)
	if err := r.RunRecordedInto(res, src, cfg, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto simulates the trace under cfg, writing the measurements into res.
// Every field of res is overwritten; its slice and histogram storage is
// reused when the geometry matches, so a warmed (res, Runner) pair runs
// without allocating.
func (r *Runner) RunInto(res *sim.Result, src *trace.Slice, cfg sim.Config) error {
	return r.RunRecordedInto(res, src, cfg, nil)
}

// RunRecordedInto is RunInto with an optional event recorder. Recording is
// passive: res is bit-identical to a recorder-off run.
func (r *Runner) RunRecordedInto(res *sim.Result, src *trace.Slice, cfg sim.Config, rec *sim.Recorder) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if r.m == nil {
		r.m = new(machine)
		r.m.wireWake()
	}
	m := r.m
	m.reset(src, cfg)
	if rec != nil {
		m.rec = rec
		for _, q := range m.allQueues() {
			q.SetObserver(rec)
		}
	}
	if err := m.run(); err != nil {
		return fmt.Errorf("dva: %s on %s: %w", cfg.String(), src.Name(), err)
	}
	m.assembleResult(res)
	return nil
}

// reset restores the machine to power-on state for a new run over src under
// cfg, reusing every allocation whose geometry still matches; on a zero
// machine it makes them. A run on a reused machine is bit-identical to one
// on a fresh machine — results, event streams and statistics — which the
// arena-reuse equivalence suite pins across the program × latency × queue
// grid.
func (m *machine) reset(src *trace.Slice, cfg sim.Config) {
	sq := cfg.ScalarQSize
	m.cfg = cfg
	m.now = 0

	// Memory system: Init reuses the backing arrays when the geometry is
	// unchanged.
	m.bus.Init(cfg.MemPorts)
	m.cache.Init(cfg.ScalarCacheLines, cfg.ScalarCacheLineBytes)

	// Fetch processor. The plan is built on the trace's first run and
	// shared by every later one, so a new pass neither allocates nor
	// re-routes.
	m.plan = m.planFor(src)
	m.planPos = 0

	// Queues. Init reuses the ring when the capacity is unchanged and
	// drops any observer a recorded run installed.
	m.apIQ.Init("APIQ", cfg.IQSize)
	m.spIQ.Init("SPIQ", cfg.IQSize)
	m.vpIQ.Init("VPIQ", cfg.IQSize)
	m.avdq.Init("AVDQ", cfg.AVDQSize)
	m.vadq.Init("VADQ", cfg.VADQSize)
	m.asdq.Init("ASDQ", sq)
	m.sadq.Init("SADQ", sq)
	m.svdq.Init("SVDQ", sq)
	m.vsdq.Init("VSDQ", sq)
	m.saaq.Init("SAAQ", sq)
	m.ssaq.Init("SSAQ", sq)
	m.vsaq.Init("VSAQ", cfg.EffVSAQSize())
	m.afbq.Init("AFBQ", sq)
	m.sfbq.Init("SFBQ", sq)

	// Address processor.
	m.aReady = [isa.NumARegs]int64{}
	m.flushWaitSeq = -1
	m.bypassBusyUntil = 0
	m.psScratch = m.psScratch[:0]
	m.disambSeq, m.disambVer = 0, 0
	m.disambRes = disamb.Conflict{}
	m.disambOK = false

	// Store engine.
	m.storeActive, m.storeIsVector, m.storeDoneAt = false, false, 0

	// Scalar processor.
	m.sReady = [isa.NumSRegs]int64{}

	// Vector processor.
	m.vRegs = [isa.NumVRegs]vreg{}
	m.fu1Busy, m.fu2Busy = 0, 0
	if len(m.qmovBusy) != cfg.QMovUnits {
		m.qmovBusy = make([]int64, cfg.QMovUnits)
	} else {
		for i := range m.qmovBusy {
			m.qmovBusy[i] = 0
		}
	}
	if len(m.drains) != cfg.AVDQSize {
		m.drains = make([]drain, cfg.AVDQSize)
	}
	// Stale ring entries past drainLen are never read before being
	// overwritten by pushDrain, so they need no zeroing.
	m.drainHead, m.drainLen = 0, 0

	// Measurements.
	m.states = sim.StateStats{}
	m.traffic = sim.MemTraffic{}
	if m.avdqHist == nil || len(m.avdqHist.Buckets) != cfg.AVDQSize+1 {
		m.avdqHist = sim.NewHistogram(cfg.AVDQSize)
	} else {
		m.avdqHist.Reset()
	}
	if m.vadqHist == nil || len(m.vadqHist.Buckets) != cfg.VADQSize+1 {
		m.vadqHist = sim.NewHistogram(cfg.VADQSize)
	} else {
		m.vadqHist.Reset()
	}
	m.bypasses, m.bypElems, m.flushes = 0, 0, 0
	m.stalls = sim.StallCounts{}
	m.rec = nil

	// Loop bookkeeping.
	m.lastProgress = 0
	m.nCycleStalls = 0
	m.mutated = false
	m.dispBlocked, m.iqFreed = false, false
	m.drainBusy = -1

	// Wake wheel: every unit due at cycle 0, no dirty bits, no cached
	// stalls. The queues' wake wiring is structural (wireWake, once per
	// machine; Init preserves it), so it is not redone here.
	m.wake = [numUnits]int64{}
	m.dirty = 0
	m.stallCache = [numUnits][2]sim.StallReason{}
	m.stallN = [numUnits]int8{}
	m.lastStep = [numUnits]int64{}
	m.progressCount = 0
}

// appendQueueStat appends one queue's occupancy summary to qs.
func appendQueueStat[T any](qs []sim.QueueStat, q *queue.Q[T], now int64) []sim.QueueStat {
	return append(qs, sim.QueueStat{
		Name:       q.Name(),
		Cap:        q.Cap(),
		Pushes:     q.Pushes(),
		Pops:       q.Pops(),
		Peak:       q.PeakLen(),
		MeanLen:    q.MeanLen(now),
		FullCycles: q.FullCycles(now),
	})
}

// queueStatsInto summarizes every queue's occupancy over the finished run
// into qs's storage (same order as allQueues), growing it only on first use.
func (m *machine) queueStatsInto(qs []sim.QueueStat) []sim.QueueStat {
	qs = qs[:0]
	now := m.now
	qs = appendQueueStat(qs, &m.apIQ, now)
	qs = appendQueueStat(qs, &m.spIQ, now)
	qs = appendQueueStat(qs, &m.vpIQ, now)
	qs = appendQueueStat(qs, &m.avdq, now)
	qs = appendQueueStat(qs, &m.vadq, now)
	qs = appendQueueStat(qs, &m.asdq, now)
	qs = appendQueueStat(qs, &m.sadq, now)
	qs = appendQueueStat(qs, &m.svdq, now)
	qs = appendQueueStat(qs, &m.vsdq, now)
	qs = appendQueueStat(qs, &m.saaq, now)
	qs = appendQueueStat(qs, &m.ssaq, now)
	qs = appendQueueStat(qs, &m.vsaq, now)
	qs = appendQueueStat(qs, &m.afbq, now)
	qs = appendQueueStat(qs, &m.sfbq, now)
	return qs
}

// assembleResult writes the finished run's measurements into res,
// overwriting every field. Histograms are copied out of the machine (not
// aliased) so res stays valid after the machine's next run.
func (m *machine) assembleResult(res *sim.Result) {
	res.Arch = sim.ArchName("DVA", m.cfg.Bypass)
	res.Config = m.cfg
	res.Cycles = m.now
	res.States = m.states
	res.Counts = m.plan.counts
	res.Traffic = m.traffic
	res.AVDQBusy = m.avdqHist.CloneInto(res.AVDQBusy)
	res.VADQBusy = m.vadqHist.CloneInto(res.VADQBusy)
	res.Bypasses = m.bypasses
	res.BypassedElems = m.bypElems
	res.Flushes = m.flushes
	res.ScalarCacheHits = m.cache.Hits
	res.ScalarCacheMisses = m.cache.Misses
	res.Stalls = m.stalls
	res.Queues = m.queueStatsInto(res.Queues)
}
