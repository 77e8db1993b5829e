//go:build race

package ooo

// raceEnabled reports whether the race detector is compiled in. The
// zero-allocation guard skips under -race: instrumentation defeats the
// escape analysis the guard depends on.
const raceEnabled = true
