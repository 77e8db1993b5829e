// Package dva is a golden fixture for the determinism analyzer: its
// basename matches a model package, so the reproducibility rules apply.
package dva

import (
	"math/rand"
	"time"
)

type state struct {
	regs map[int]int64
}

func mapRange(s *state) int64 {
	var sum int64
	for _, v := range s.regs { // want "range over map in model package dva"
		sum += v
	}
	return sum
}

func sortedIteration(s *state, keys []int) int64 {
	var sum int64
	for _, k := range keys {
		sum += s.regs[k]
	}
	return sum
}

func wallClock() time.Duration {
	start := time.Now()      // want "time.Now in model package dva"
	return time.Since(start) // want "time.Since in model package dva"
}

func globalRand() int {
	return rand.Intn(4) // want "rand.Intn uses the global source in model package dva"
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(4)
}

func spawn(ch chan<- int) {
	go func() { ch <- 1 }() // want "goroutine spawned in model package dva"
}

func suppressed() time.Time {
	return time.Now() // declint:allow determinism — fixture: wall clock feeds a progress log only
}
