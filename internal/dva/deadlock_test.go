package dva

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/trace"
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
		m := wedgedMachine(src, slow)
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

// wedgedMachine returns a machine reset to run src in which every A and S
// register is ready only at MaxInt64, so it deadlocks.
func wedgedMachine(src *trace.Slice, slow bool) *machine {
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
	return m
}

// A deadlock is a *sim.DeadlockError, also through the Runner's wrapping,
// whose fields are the ones its message is made of.
func TestDeadlockErrorFields(t *testing.T) {
	m := wedgedMachine(tracegen.Random(7, 400).Trace(), false)
	err := fmt.Errorf("dva: wrapped: %w", m.run())
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %q is not a *sim.DeadlockError", err)
	}
	window := m.cfg.DeadlockWindow(16)
	want := sim.DeadlockError{Core: "DVA", Cycle: m.lastProgress + window + 1,
		LastProgress: m.lastProgress, Window: window, State: m.dumpState()}
	if *de != want {
		t.Errorf("DeadlockError = %+v, want %+v", *de, want)
	}
	if msg := fmt.Sprintf("deadlock at cycle %d: %s", want.Cycle, want.State); de.Error() != msg {
		t.Errorf("Error() = %q, want %q", de.Error(), msg)
	}
}
