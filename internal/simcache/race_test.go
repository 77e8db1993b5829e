//go:build race

package simcache

// raceEnabled reports whether the race detector is compiled in. The
// allocation guard skips under -race, where sync.Pool drops items at random
// and fmt's printer cache with it.
const raceEnabled = true
