//go:build !race

package ooo

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
