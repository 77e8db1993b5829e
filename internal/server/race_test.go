//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. The
// allocation budgets skip under -race, which instruments allocations.
const raceEnabled = true
