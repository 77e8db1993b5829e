//go:build !race

package report

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
