package dva

import (
	"fmt"
	"math"

	"decvec/internal/disamb"
	"decvec/internal/isa"
	"decvec/internal/sim"
)

// stepAP advances the address processor by one cycle: it issues at most one
// instruction from the APIQ, in order. The AP performs all memory accesses
// and all address arithmetic (§4.2). Vector stores only deposit their
// address into the VSAQ here; the store itself is performed later by the
// store engine.
func (m *machine) stepAP() {
	u, ok := m.apIQ.Head(m.now)
	if !ok {
		return
	}
	if m.flushWaitSeq >= 0 {
		// A prior load found a hazard: every store up to the youngest
		// offender must reach memory before the AP resumes (§4.2).
		if m.oldestPendingStoreSeq() <= m.flushWaitSeq {
			m.stall(sim.StallAPFlush)
			return
		}
		m.flushWaitSeq = -1
	}
	in := u.in
	switch in.Class {
	case isa.ClassScalarALU:
		m.apScalarALU(in)
	case isa.ClassBranch:
		m.apBranch(in)
	case isa.ClassScalarLoad:
		m.apScalarLoad(in)
	case isa.ClassScalarStore:
		m.apScalarStore(in)
	case isa.ClassVectorLoad, isa.ClassGather:
		m.apVectorLoad(in)
	case isa.ClassVectorStore, isa.ClassScatter:
		m.apVectorStore(in)
	default: // declint:nonexhaustive — the front end routes only memory, branch and scalar-ALU classes here; anything else is a routing bug
		panic(fmt.Sprintf("dva: AP cannot execute %s", in))
	}
}

// apSrcsReady checks the A-register sources and the SAAQ-delivered S
// sources of an AP instruction. It does not consume anything.
func (m *machine) apSrcsReady(in *isa.Inst) bool {
	for _, src := range [...]isa.Reg{in.Src1, in.Src2} {
		if src.Kind == isa.RegA && m.aReady[src.Idx] > m.now {
			return false
		}
	}
	if n := countSSources(in); n > 0 {
		// The S operands travel through the SAAQ in program order.
		for i := 0; i < n; i++ {
			s, ok := m.saaq.PeekAt(m.now, i)
			if !ok || s.readyAt > m.now {
				return false
			}
		}
	}
	return true
}

// apConsumeSrcs pops the SAAQ entries the instruction consumed.
func (m *machine) apConsumeSrcs(in *isa.Inst) {
	for i, n := 0, countSSources(in); i < n; i++ {
		if _, ok := m.saaq.Pop(m.now); !ok {
			panic("dva: SAAQ underflow at AP issue")
		}
	}
}

func (m *machine) apScalarALU(in *isa.Inst) {
	if !m.apSrcsReady(in) {
		m.stall(sim.StallAPData)
		return
	}
	m.apConsumeSrcs(in)
	if in.Dst.Kind == isa.RegA {
		m.aReady[in.Dst.Idx] = m.now + 1
	}
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

func (m *machine) apBranch(in *isa.Inst) {
	if !m.apSrcsReady(in) {
		m.stall(sim.StallAPData)
		return
	}
	if m.afbq.Full() {
		m.stall(sim.StallAPAFBQ)
		return
	}
	m.apConsumeSrcs(in)
	if !m.afbq.Push(m.now, in.Seq) {
		panic("dva: AFBQ push failed after capacity check")
	}
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

// disambCheck disambiguates the load against the pending stores, memoizing
// the verdict. Check is a pure function of the load and the visible
// store-queue entries, so a load re-checking while stalled (on the bus, a
// full data queue, ...) reuses the cached verdict as long as neither store
// queue has pushed or popped and the cached scan saw every queued entry.
func (m *machine) disambCheck(in *isa.Inst) disamb.Conflict {
	// Pushes+Pops over both queues strictly increases on any queue movement,
	// so equality means the queue contents are untouched.
	ver := m.ssaq.Pushes() + m.ssaq.Pops() + m.vsaq.Pushes() + m.vsaq.Pops()
	if m.disambOK && m.disambSeq == in.Seq && m.disambVer == ver {
		return m.disambRes
	}
	c := disamb.Check(in, m.pendingStores())
	m.disambSeq, m.disambVer, m.disambRes = in.Seq, ver, c
	// Entries pushed this very cycle are invisible to the scan but become
	// visible next cycle without any counter movement; only a fully-visible
	// snapshot may be reused.
	m.disambOK = m.ssaq.AllVisible(m.now) && m.vsaq.AllVisible(m.now)
	return c
}

// pendingStores snapshots both store address queues for disambiguation.
// The returned slice is scratch storage owned by the machine; it is only
// valid until the next call.
func (m *machine) pendingStores() []disamb.PendingStore {
	ps := m.psScratch[:0]
	m.ssaq.All(m.now, func(st *storeAddr) bool {
		ps = append(ps, disamb.PendingStore{Inst: st.inst, Range: st.rng})
		return true
	})
	m.vsaq.All(m.now, func(st *storeAddr) bool {
		ps = append(ps, disamb.PendingStore{Inst: st.inst, Range: st.rng})
		return true
	})
	m.psScratch = ps
	return ps
}

// oldestPendingStoreSeq returns the smallest sequence number still waiting
// in either store address queue, or MaxInt64 when both are empty.
func (m *machine) oldestPendingStoreSeq() int64 {
	oldest := int64(math.MaxInt64)
	if st, ok := m.ssaq.Head(m.now); ok && st.seq < oldest {
		oldest = st.seq
	}
	if st, ok := m.vsaq.Head(m.now); ok && st.seq < oldest {
		oldest = st.seq
	}
	return oldest
}

func (m *machine) apScalarLoad(in *isa.Inst) {
	if !m.apSrcsReady(in) {
		m.stall(sim.StallAPData)
		return
	}
	if c := m.disambCheck(in); c.Hazard {
		// Scalar loads never bypass; drain the offending stores. Initiating
		// the flush mutates state on a stall path (the next cycle stalls as
		// StallAPFlush, not StallAPHazard), so it must block the idle skip.
		m.flushWaitSeq = c.YoungestSeq
		m.flushes++
		m.mutated = true
		m.rec.Flush(m.now, c.YoungestSeq)
		m.stall(sim.StallAPHazard)
		return
	}
	toS := in.Dst.Kind == isa.RegS
	if toS && m.asdq.Full() {
		m.stall(sim.StallAPASDQ)
		return
	}
	var dataAt int64
	if m.cache.WouldHit(in.Base) {
		m.cache.Lookup(in.Base)
		dataAt = m.now + 1
	} else {
		if !m.bus.FreeAt(m.now) {
			m.stall(sim.StallAPBus)
			return
		}
		m.cache.Lookup(in.Base)
		m.bus.Reserve(m.now, 1)
		m.rec.BusGrant(m.now, sim.ProcAP, in.Seq, 1)
		m.traffic.LoadElems++
		dataAt = m.now + 1 + m.cfg.AccessLatency(in.Base, in.Seq)
	}
	m.apConsumeSrcs(in)
	if toS {
		if !m.asdq.Push(m.now, sslot{seq: in.Seq, readyAt: dataAt}) {
			panic("dva: ASDQ push failed after capacity check")
		}
	} else {
		m.aReady[in.Dst.Idx] = dataAt
	}
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

func (m *machine) apScalarStore(in *isa.Inst) {
	if !m.apSrcsReady(in) {
		m.stall(sim.StallAPData)
		return
	}
	if m.ssaq.Full() {
		m.stall(sim.StallAPSSAQ)
		return
	}
	entry := storeAddr{
		seq:  in.Seq,
		rng:  disamb.RangeOf(in),
		vl:   1,
		inst: in,
	}
	if in.Dst.Kind == isa.RegS {
		entry.needsData = true
	} else {
		// A-register data: the AP itself owns the value.
		entry.dataReadyAt = max64(m.now+1, m.aReady[in.Dst.Idx])
	}
	m.apConsumeSrcs(in)
	m.cache.Store(in.Base)
	if !m.ssaq.Push(m.now, entry) {
		panic("dva: SSAQ push failed after capacity check")
	}
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

func (m *machine) apVectorLoad(in *isa.Inst) {
	if !m.apSrcsReady(in) {
		m.stall(sim.StallAPData)
		return
	}
	if m.avdq.Full() {
		m.stall(sim.StallAPAVDQ)
		return
	}
	vl := int64(in.VL)
	c := m.disambCheck(in)
	if c.Hazard {
		if m.cfg.Bypass && c.BypassSeq >= 0 && c.BypassSeq == c.YoungestSeq {
			m.apTryBypass(in, c.BypassSeq, vl)
			return
		}
		// Flush initiation mutates state on a stall path; see apScalarLoad.
		m.flushWaitSeq = c.YoungestSeq
		m.flushes++
		m.mutated = true
		m.rec.Flush(m.now, c.YoungestSeq)
		m.stall(sim.StallAPHazard)
		return
	}
	if !m.bus.FreeAt(m.now) {
		m.stall(sim.StallAPBus)
		return
	}
	m.apConsumeSrcs(in)
	m.bus.Reserve(m.now, vl)
	m.rec.BusGrant(m.now, sim.ProcAP, in.Seq, vl)
	m.traffic.LoadElems += vl
	if !m.avdq.Push(m.now, vslot{seq: in.Seq, vl: vl, readyAt: m.now + m.cfg.AccessLatency(in.Base, in.Seq) + vl}) {
		panic("dva: AVDQ push failed after capacity check")
	}
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

// apTryBypass services a load identical to a queued store by copying the
// store's data from the VADQ into the AVDQ, VL cycles inside the processor
// (§7). The memory port is left free, so an independent memory access can
// proceed in parallel — the "illusion of two memory ports".
func (m *machine) apTryBypass(in *isa.Inst, storeSeq, vl int64) {
	if m.now < m.bypassBusyUntil {
		m.stall(sim.StallAPBypassUnit)
		return
	}
	// The store's data must have arrived in the VADQ.
	dataReady := false
	m.vadq.All(m.now, func(v *vslot) bool {
		if v.seq == storeSeq {
			dataReady = v.readyAt <= m.now
			return false
		}
		return true
	})
	if !dataReady {
		m.stall(sim.StallAPBypassData)
		return
	}
	m.apConsumeSrcs(in)
	m.bypassBusyUntil = m.now + vl
	if !m.avdq.Push(m.now, vslot{
		seq:      in.Seq,
		vl:       vl,
		readyAt:  m.now + m.cfg.QMovDepth + vl,
		bypassed: true,
	}) {
		panic("dva: AVDQ push failed after capacity check")
	}
	m.bypasses++
	m.bypElems += vl
	m.rec.Bypass(m.now, in.Seq, vl)
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

func (m *machine) apVectorStore(in *isa.Inst) {
	if !m.apSrcsReady(in) {
		m.stall(sim.StallAPData)
		return
	}
	if m.vsaq.Full() {
		m.stall(sim.StallAPVSAQ)
		return
	}
	m.apConsumeSrcs(in)
	m.invalidateRange(in)
	if !m.vsaq.Push(m.now, storeAddr{
		seq:       in.Seq,
		rng:       disamb.RangeOf(in),
		vl:        int64(in.VL),
		isVector:  true,
		needsData: true,
		inst:      in,
	}) {
		panic("dva: VSAQ push failed after capacity check")
	}
	m.popIQ(&m.apIQ, sim.ProcAP)
	m.progress()
}

func (m *machine) invalidateRange(in *isa.Inst) {
	if in.Class == isa.ClassScatter {
		return
	}
	m.cache.InvalidateStrided(in.Base, in.Stride*isa.ElemSize, in.VL)
}

// stepStoreEngine performs queued stores "behind the back" of the AP: when
// the oldest pending store's data has reached its data queue and the memory
// bus is free, the store proceeds, occupying the bus for VL cycles (one for
// scalars). Stores execute in strict program order across both queues.
func (m *machine) stepStoreEngine() {
	if m.storeActive {
		if m.now < m.storeDoneAt {
			return
		}
		m.completeStore()
		m.storeActive = false
		m.progress()
		// The bus is still reserved through this cycle; a new store can
		// begin next cycle.
		return
	}
	sHead, sok := m.ssaq.Head(m.now)
	vHead, vok := m.vsaq.Head(m.now)
	var st *storeAddr
	switch {
	case sok && (!vok || sHead.seq < vHead.seq):
		st = sHead
	case vok:
		st = vHead
	default:
		return
	}
	if !m.storeDataReady(st) {
		m.stall(sim.StallSTData)
		return
	}
	if !m.bus.FreeAt(m.now) {
		m.stall(sim.StallSTBus)
		return
	}
	m.bus.Reserve(m.now, st.vl)
	if m.rec != nil {
		m.rec.BusGrant(m.now, sim.ProcST, st.seq, st.vl)
		m.rec.Issue(m.now, sim.ProcST, st.seq, st.inst.Class.String())
	}
	m.traffic.StoreElems += st.vl
	m.storeActive = true
	m.storeIsVector = st.isVector
	m.storeDoneAt = m.now + st.vl
	m.progress()
}

// storeDataReady reports whether the store's data is available.
func (m *machine) storeDataReady(st *storeAddr) bool {
	if !st.needsData {
		return st.dataReadyAt <= m.now
	}
	if st.isVector {
		v, ok := m.vadq.Head(m.now)
		if !ok {
			return false
		}
		if v.seq != st.seq {
			panic(fmt.Sprintf("dva: VADQ head seq %d does not match store seq %d", v.seq, st.seq))
		}
		return v.readyAt <= m.now
	}
	s, ok := m.sadq.Head(m.now)
	if !ok {
		return false
	}
	if s.seq != st.seq {
		panic(fmt.Sprintf("dva: SADQ head seq %d does not match store seq %d", s.seq, st.seq))
	}
	return s.readyAt <= m.now
}

// completeStore retires the store that just finished: its address queue
// entry and (if any) its data queue entry are released.
func (m *machine) completeStore() {
	if m.storeIsVector {
		if _, ok := m.vsaq.Pop(m.now); !ok {
			panic("dva: VSAQ underflow at store completion")
		}
		if _, ok := m.vadq.Pop(m.now); !ok {
			panic("dva: VADQ underflow at store completion")
		}
		return
	}
	st, ok := m.ssaq.Pop(m.now)
	if !ok {
		panic("dva: SSAQ underflow at store completion")
	}
	if st.needsData {
		if _, ok := m.sadq.Pop(m.now); !ok {
			panic("dva: SADQ underflow at store completion")
		}
	}
}
