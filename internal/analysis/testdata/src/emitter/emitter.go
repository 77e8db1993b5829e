// Package emitter exercises the emission-site rules of recorderhygiene:
// deferred emissions and payload construction must sit behind a nil or
// Enabled guard (mirroring the pre-fix dva issue-accounting defers).
package emitter

import (
	"fmt"

	"sim"
)

type machine struct {
	rec *sim.Recorder
}

// badDefer guards inside the closure — too late: the closure and defer
// frame are allocated unconditionally.
func (m *machine) badDefer(v int64) {
	defer func() { // want "deferred Recorder emission allocates a closure"
		if m.rec != nil {
			m.rec.Emit(sim.Payload{A: v})
		}
	}()
	v++
}

// goodDefer hoists the guard around the defer statement.
func (m *machine) goodDefer(v int64) {
	if m.rec != nil {
		defer func() { m.rec.Emit(sim.Payload{A: v}) }()
	}
	v++
}

func (m *machine) payloadUnguarded(v int64) {
	m.rec.Emit(sim.Payload{A: v}) // want "composite-literal payload built in a Recorder call"
}

func (m *machine) sprintfUnguarded(v int64) {
	m.rec.Note(fmt.Sprintf("v=%d", v)) // want "fmt.Sprintf payload built in a Recorder call"
}

func (m *machine) concatUnguarded(s string) {
	m.rec.Note("v=" + s) // want "string concatenation built in a Recorder call"
}

func (m *machine) payloadGuarded(v int64) {
	if m.rec != nil {
		m.rec.Emit(sim.Payload{A: v})
	}
}

func (m *machine) enabledGuarded(v int64) {
	if m.rec.Enabled() {
		m.rec.Emit(sim.Payload{A: v})
	}
}

func (m *machine) earlyReturn(v int64) {
	if m.rec == nil {
		return
	}
	m.rec.Emit(sim.Payload{A: v})
}

// cheap arguments need no guard: the nil-safe entry point handles the rest.
func (m *machine) cheapUnguarded(v int64) {
	m.rec.EmitN(sim.Payload{}, 0) // want "composite-literal payload built in a Recorder call"
}

func (m *machine) cheapNote() {
	m.rec.Note("tick")
}

// bulkSpan mirrors the stall-debt settlement call sites: pre-built payloads
// and integer weights are cheap arguments, so no guard is required.
func (m *machine) bulkSpan(p sim.Payload, skipped int64) {
	m.rec.EmitSpan(p, skipped)
}

// bulkSpanUnguarded builds the payload at the call — that allocation must
// still sit behind a guard even on the bulk path.
func (m *machine) bulkSpanUnguarded(lo, hi int64) {
	m.rec.EmitSpan(sim.Payload{A: lo}, hi-lo) // want "composite-literal payload built in a Recorder call"
}

// bulkSpanGuarded is the same site with the guard hoisted, the shape any
// emission that builds its payload at the call must take.
func (m *machine) bulkSpanGuarded(lo, hi int64) {
	if m.rec != nil {
		m.rec.EmitSpan(sim.Payload{A: lo}, hi-lo)
	}
}
