package ooo

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"decvec/internal/tracegen"
)

// TestWedgedDeadlockMatchesSlowTick wedges the machine — every register's
// initial value ready only at MaxInt64 — so no instruction reading one can
// issue and every unit sleeps at sim.Never, and checks that the fast path
// fails exactly as SlowTick does: at the first cycle more than the deadlock
// window past the last progress, not after an idle skip to Never.
func TestWedgedDeadlockMatchesSlowTick(t *testing.T) {
	src := tracegen.Random(7, 400).Trace()
	wedged := func(slow bool) string {
		cfg := DefaultConfig(30)
		cfg.SlowTick = slow
		m := new(machine)
		m.reset(src, cfg)
		wedge := value{valid: true, ready: math.MaxInt64}
		for i := range m.vRename {
			m.vRename[i] = &wedge
		}
		for i := range m.sValues {
			m.sValues[i] = &wedge
		}
		for i := range m.aValues {
			m.aValues[i] = &wedge
		}
		err := m.run()
		if err == nil {
			t.Fatalf("SlowTick=%v: wedged machine finished", slow)
		}
		want := fmt.Sprintf("deadlock at cycle %d ", m.lastProgress+m.cfg.DeadlockWindow(64)+1)
		if !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("SlowTick=%v: got %q, want prefix %q", slow, err, want)
		}
		return err.Error()
	}
	if fast, slow := wedged(false), wedged(true); fast != slow {
		t.Errorf("fast and SlowTick deadlock errors differ:\nfast %s\nslow %s", fast, slow)
	}
}
