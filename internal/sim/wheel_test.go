package sim

import "testing"

func TestWheelResetArmsEveryUnit(t *testing.T) {
	var w Wheel
	w.Sleep(1, 50)
	w.Raise(2)
	w.Reset(3)
	for u := 0; u < 3; u++ {
		if due, dirty := w.Due(u, 0); !due || dirty {
			t.Errorf("unit %d after Reset: due=%v dirty=%v, want due and clean", u, due, dirty)
		}
	}
	for u := 3; u < wheelUnits; u++ {
		if due, _ := w.Due(u, Never-1); due {
			t.Errorf("unused unit %d is due", u)
		}
	}
	if *w.DirtyWord() != 0 {
		t.Errorf("dirty word %#x after Reset, want 0", *w.DirtyWord())
	}
}

func TestWheelDueAtWakeTime(t *testing.T) {
	var w Wheel
	w.Reset(2)
	w.Sleep(1, 10)
	if due, _ := w.Due(1, 9); due {
		t.Error("unit due before its wake time")
	}
	if due, dirty := w.Due(1, 10); !due || dirty {
		t.Errorf("at its wake time: due=%v dirty=%v, want due and clean", due, dirty)
	}
	if due, _ := w.Due(1, 11); !due {
		t.Error("unit not due after its wake time")
	}
}

func TestWheelDueConsumesDirtyBit(t *testing.T) {
	var w Wheel
	w.Reset(3)
	w.Sleep(0, Never)
	w.Sleep(1, Never)
	w.Raise(1)
	if due, _ := w.Due(0, 5); due {
		t.Error("raising unit 1 woke unit 0")
	}
	if due, dirty := w.Due(1, 5); !due || !dirty {
		t.Errorf("raised unit: due=%v dirty=%v, want due and dirty", due, dirty)
	}
	if due, dirty := w.Due(1, 5); due || dirty {
		t.Errorf("second Due: due=%v dirty=%v, want the bit consumed", due, dirty)
	}
}

func TestWheelFoldMovesNextCycleHalf(t *testing.T) {
	var w Wheel
	w.Reset(3)
	w.Sleep(2, Never)
	*w.DirtyWord() |= WakeBits(2)
	if due, dirty := w.Due(2, 0); !due || !dirty {
		t.Fatalf("this-cycle half: due=%v dirty=%v, want due and dirty", due, dirty)
	}
	if due, _ := w.Due(2, 0); due {
		t.Fatal("next-cycle half visible before Fold")
	}
	w.Fold()
	if due, dirty := w.Due(2, 1); !due || !dirty {
		t.Fatalf("after Fold: due=%v dirty=%v, want the next-cycle bit current", due, dirty)
	}
	w.Fold()
	if due, _ := w.Due(2, 2); due {
		t.Error("a second Fold brought the bit back: the first left the high half set")
	}
	// A current-cycle bit raised after the unit's slot survives the fold.
	w.Raise(2)
	w.Fold()
	if due, dirty := w.Due(2, 3); !due || !dirty {
		t.Errorf("after Fold of a current-cycle bit: due=%v dirty=%v", due, dirty)
	}
}

func TestWheelSteppedPolicy(t *testing.T) {
	for _, tc := range []struct {
		name          string
		acted, dirty  bool
		scan          bool
		wakeAfterStep int64
	}{
		{"acted", true, false, false, 8},
		{"acted dirty", true, true, false, 8},
		{"dirty stall", false, true, false, 8},
		{"clean stall", false, false, true, 99},
	} {
		var w Wheel
		w.Reset(1)
		w.Sleep(0, 99)
		if scan := w.Stepped(0, 7, tc.acted, tc.dirty); scan != tc.scan {
			t.Errorf("%s: scan=%v, want %v", tc.name, scan, tc.scan)
		}
		if got := w.Min(Never); got != tc.wakeAfterStep {
			t.Errorf("%s: wake %d, want %d", tc.name, got, tc.wakeAfterStep)
		}
	}
}

func TestWheelMinAndWakeBy(t *testing.T) {
	var w Wheel
	w.Reset(3)
	w.Sleep(0, 40)
	w.Sleep(1, Never)
	w.Sleep(2, 25)
	if got := w.Min(Never); got != 25 {
		t.Errorf("Min = %d, want 25", got)
	}
	if got := w.Min(20); got != 20 {
		t.Errorf("Min clamped at deadline 20 = %d, want 20", got)
	}
	w.WakeBy(1, 30)
	w.WakeBy(2, 33)
	if got := w.Min(Never); got != 25 {
		t.Errorf("WakeBy loosened a wake time: Min = %d, want 25", got)
	}
	w.WakeBy(0, 12)
	if got := w.Min(Never); got != 12 {
		t.Errorf("WakeBy did not tighten: Min = %d, want 12", got)
	}
	w.Reset(1)
	w.Sleep(0, Never)
	if got := w.Min(Never); got != Never {
		t.Errorf("an all-asleep wheel: Min = %d, want Never", got)
	}
}

func TestLowerFutureIsStrictlyFuture(t *testing.T) {
	for _, tc := range []struct {
		h, now, t, want int64
	}{
		{Never, 10, 9, Never},  // past
		{Never, 10, 10, Never}, // now: already satisfied
		{Never, 10, 11, 11},    // future
		{15, 10, 11, 11},       // earlier than the running minimum
		{15, 10, 15, 15},       // not earlier
		{15, 10, 20, 15},       // later
	} {
		if got := LowerFuture(tc.h, tc.now, tc.t); got != tc.want {
			t.Errorf("LowerFuture(%d, %d, %d) = %d, want %d", tc.h, tc.now, tc.t, got, tc.want)
		}
	}
}

func TestWheelZeroAlloc(t *testing.T) {
	var w Wheel
	now := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset(6)
		for u := 0; u < 6; u++ {
			if due, dirty := w.Due(u, now); due && w.Stepped(u, now, u%2 == 0, dirty) {
				w.Sleep(u, LowerFuture(Never, now, now+int64(u)))
			}
		}
		w.Raise(3)
		w.WakeBy(5, now+2)
		w.Fold()
		now = w.Min(now + 100)
	})
	if allocs != 0 {
		t.Errorf("wheel allocates %v times per cycle, want 0", allocs)
	}
}
