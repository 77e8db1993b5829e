//go:build !race

package simcache

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
