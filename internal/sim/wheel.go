package sim

// Never is the wake time of a unit whose decisions wait on no stored
// timestamp: only a dirty bit wakes it. Far enough below MaxInt64 that
// cycle arithmetic cannot overflow.
const Never = int64(1)<<62 - 1

// wheelUnits is the wheel's fixed unit capacity; a unit's bit must fit one
// 16-bit half of the dirty word.
const wheelUnits = 8

// Wheel is the per-unit wake scheduler of the dva (six units) and ooo (three)
// fast paths: a fixed wake-time array and a packed dirty word, no heap. A
// unit steps only when due: its wake time has come, or its dirty bit is set
// because something its decisions read has changed. The dirty word's low
// half says "step this cycle", its high half "step next cycle", covering a
// queue entry's one-cycle visibility delay.
//
// Every core keeps these rules: a step is a chain of "timestamp <= now" and
// occupancy predicates, so waking early is always safe (the unit re-stalls
// identically) and sleeping late is the bug class; a sleeping unit's first
// failing predicate changes only through a dirty bit or a stored future
// timestamp, all of which its clean-stall wake time covers; state a unit
// rewrites is read only by that unit, and rewriting it counts as acting.
//
// The idle skip is the all-units-asleep case: after a cycle with no progress
// and no mutation every dirty bit is clear and the core jumps to Min. The
// deadlock rule counts cycles, fast and SlowTick alike: a core may step
// through cycle lastProgress+window without progress, the next cycle is a
// deadlock, and Min never returns a cycle past that deadline.
type Wheel struct {
	wake  [wheelUnits]int64
	dirty uint32
}

// Reset arms the wheel for n units, all due at cycle 0 and clean; the unused
// slots sleep at Never.
func (w *Wheel) Reset(n int) {
	*w = Wheel{}
	for u := n; u < wheelUnits; u++ {
		w.wake[u] = Never
	}
}

// DirtyWord returns the dirty word, for queues that raise WakeBits masks.
func (w *Wheel) DirtyWord() *uint32 { return &w.dirty }

// WakeBits builds a dirty mask that wakes the given units this cycle and the
// next.
func WakeBits(units ...int) uint32 {
	var b uint32
	for _, u := range units {
		b |= 1 << u
	}
	return b | b<<16
}

// Raise sets unit u's this-cycle dirty bit; a unit whose slot has already
// run keeps it until its next one.
// declint:hotpath
func (w *Wheel) Raise(u int) { w.dirty |= 1 << u }

// Due reports whether unit u steps at cycle now, consuming its dirty bit and
// reporting that too, for Stepped.
// declint:hotpath
func (w *Wheel) Due(u int, now int64) (due, dirty bool) {
	bit := uint32(1) << u
	if w.dirty&bit == 0 {
		return now >= w.wake[u], false
	}
	w.dirty &^= bit
	return true, true
}

// Stepped applies the after-step policy to unit u, stepped at cycle now. A
// unit that acted may act again at once, and a dirty-triggered stall is
// mid-burst, another dirty bit a cycle or two away: both stay due. A clean
// stall, the move into a quiet phase, returns true: the caller scans the
// unit's timestamps and calls Sleep.
// declint:hotpath
func (w *Wheel) Stepped(u int, now int64, acted, dirty bool) (scan bool) {
	if acted || dirty {
		w.wake[u] = now + 1
		return false
	}
	return true
}

// Sleep sets unit u's wake time to t.
// declint:hotpath
func (w *Wheel) Sleep(u int, t int64) { w.wake[u] = t }

// WakeBy brings unit u's wake time forward to t, for an event that changes
// its predicates without a dirty bit.
// declint:hotpath
func (w *Wheel) WakeBy(u int, t int64) {
	if t < w.wake[u] {
		w.wake[u] = t
	}
}

// Fold ends a cycle: the next-cycle half becomes the this-cycle half.
// declint:hotpath
func (w *Wheel) Fold() {
	d := w.dirty
	w.dirty = (d | d>>16) & 0xffff
}

// Min returns the idle-skip target: the earliest wake time, but no later
// than deadline.
// declint:hotpath
func (w *Wheel) Min(deadline int64) int64 {
	h := deadline
	for u := range w.wake {
		if w.wake[u] < h {
			h = w.wake[u]
		}
	}
	return h
}

// LowerFuture folds timestamp t into the running minimum h if it is strictly
// in the future: one at or before now already satisfies its predicate.
// declint:hotpath
func LowerFuture(h, now, t int64) int64 {
	if t > now && t < h {
		return t
	}
	return h
}
