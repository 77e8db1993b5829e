//go:build race

package report

// raceEnabled reports whether the race detector is compiled in. The
// allocation guards skip under -race, where sync.Pool drops items at random
// and fmt's printer cache with it.
const raceEnabled = true
