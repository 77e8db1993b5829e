package dva

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/tracegen"
)

// TestWedgedDeadlockMatchesSlowTick wedges the machine — every A and S
// register ready only at MaxInt64 — so every unit sleeps at sim.Never, and
// checks that the fast path fails exactly as SlowTick does: at the first
// cycle more than the deadlock window past the last progress, not after an
// idle skip to Never.
func TestWedgedDeadlockMatchesSlowTick(t *testing.T) {
	src := tracegen.Random(7, 400).Trace()
	wedged := func(slow bool) string {
		cfg := sim.DefaultConfig(30)
		cfg.SlowTick = slow
		m := new(machine)
		m.wireWake()
		m.reset(src, cfg)
		for i := range m.aReady {
			m.aReady[i] = math.MaxInt64
		}
		for i := range m.sReady {
			m.sReady[i] = math.MaxInt64
		}
		err := m.run()
		if err == nil {
			t.Fatalf("SlowTick=%v: wedged machine finished", slow)
		}
		want := fmt.Sprintf("deadlock at cycle %d:", m.lastProgress+m.cfg.DeadlockWindow(16)+1)
		if !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("SlowTick=%v: got %q, want prefix %q", slow, err, want)
		}
		return err.Error()
	}
	if fast, slow := wedged(false), wedged(true); fast != slow {
		t.Errorf("fast and SlowTick deadlock errors differ:\nfast %s\nslow %s", fast, slow)
	}
}
