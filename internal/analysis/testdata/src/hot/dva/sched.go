// Wake-wheel fixture: pins that a heap-allocating scheduler shape is
// rejected on the hot path. The real wheel (sim.Wheel, internal/sim/wheel.go) is a
// fixed-size array in the machine plus a packed dirty word; every rejected
// shape below is a way of "upgrading" it to heap-backed event structures —
// per-tick wheel slices, pushed event nodes, map-keyed wake times — that
// must not survive review.
package dva

type wakeEvent struct {
	unit int
	at   int64
}

type sched struct {
	// The legal shape: wheel storage lives in the machine, fixed size.
	wake  [6]int64
	dirty uint32
	// due is the reusable scratch the legal collect path appends into.
	due []int
}

// tick is the per-cycle scheduler slot of the fixture machine.
//
// declint:hotpath
func (s *sched) tick(now int64) {
	// Legal: fixed-array wheel update and packed dirty-word fold.
	s.wake[0] = now + 1
	s.dirty = (s.dirty | s.dirty>>16) & 0x3f

	// Legal: collecting due units into a reused scratch field.
	s.due = s.due[:0]
	for u := range s.wake {
		if s.wake[u] <= now {
			s.due = append(s.due, u)
		}
	}

	// A per-tick wheel slice rebuilds the schedule on the heap every cycle.
	wheel := []int64{now, now + 1} // want "slice composite literal allocates in hot path tick"
	_ = wheel

	// A pushed event node is the container/heap shape: one allocation per
	// scheduled wake-up.
	ev := &wakeEvent{unit: 0, at: now + 1} // want "pointer composite literal allocates in hot path tick"
	_ = ev

	// A map-keyed wheel allocates on construction and on growth.
	pending := map[int]int64{0: now + 1} // want "map composite literal allocates in hot path tick"
	_ = pending

	// Accumulating due units into a fresh slice instead of machine scratch.
	var dueNow []int
	dueNow = append(dueNow, 0) // want "append to dueNow allocates in hot path tick"
	_ = dueNow
}
