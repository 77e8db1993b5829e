package ooo

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

// TestWedgedDeadlockMatchesSlowTick wedges the machine — every register's
// initial value ready only at MaxInt64 — so no instruction reading one can
// issue and every unit sleeps at sim.Never, and checks that the fast path
// fails exactly as SlowTick does: at the first cycle more than the deadlock
// window past the last progress, not after an idle skip to Never.
func TestWedgedDeadlockMatchesSlowTick(t *testing.T) {
	src := tracegen.Random(7, 400).Trace()
	wedged := func(slow bool) string {
		m := wedgedMachine(src, slow)
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

// wedgedMachine returns a machine reset to run src in which every
// register's initial value is ready only at MaxInt64, so it deadlocks.
func wedgedMachine(src *trace.Slice, slow bool) *machine {
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
	return m
}

// A deadlock is a *sim.DeadlockError, also through wrapping, whose fields
// are the ones its message is made of.
func TestDeadlockErrorFields(t *testing.T) {
	m := wedgedMachine(tracegen.Random(7, 400).Trace(), false)
	err := fmt.Errorf("ooo: wrapped: %w", m.run())
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %q is not a *sim.DeadlockError", err)
	}
	window := m.cfg.DeadlockWindow(64)
	want := sim.DeadlockError{Core: "OOO", Cycle: m.lastProgress + window + 1,
		LastProgress: m.lastProgress, Window: window, State: fmt.Sprintf("window %d entries", m.wLen)}
	if *de != want {
		t.Errorf("DeadlockError = %+v, want %+v", *de, want)
	}
	if msg := fmt.Sprintf("deadlock at cycle %d (window %d entries)", want.Cycle, m.wLen); de.Error() != msg {
		t.Errorf("Error() = %q, want %q", de.Error(), msg)
	}
}
