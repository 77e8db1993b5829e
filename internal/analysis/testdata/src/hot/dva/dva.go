// Package dva is a hotalloc fixture: its basename is a model package, and
// run carries the hotpath directive, so run and everything it reaches off
// the error paths is checked for per-cycle allocations.
package dva

import "fmt"

type machine struct {
	scratch []int
	drains  []int
	n       int
}

// run is the per-cycle loop of the fixture machine.
//
// declint:hotpath
func (m *machine) run() error {
	for i := 0; i < 8; i++ {
		m.step(i)
	}
	if m.n < 0 {
		// Error path: the fmt call and the dump() helper both stay cold.
		return fmt.Errorf("dva: bad state %s", m.dump())
	}
	return nil
}

func (m *machine) step(i int) {
	xs := []int{i} // want "slice composite literal allocates in hot path run"
	_ = xs
	p := &machine{n: i} // want "pointer composite literal allocates in hot path run"
	_ = p
	counts := map[int]int{i: 1} // want "map composite literal allocates in hot path run"
	_ = counts

	// The three legal append shapes: a reused field, a reslice of one,
	// and (in route) a parameter.
	m.drains = append(m.drains, i)
	ps := m.scratch[:0]
	ps = append(ps, i)
	m.scratch = route(ps, i)

	var fresh []int
	fresh = append(fresh, i) // want "append to fresh allocates in hot path run"
	_ = fresh

	fmt.Println(i) // want "fmt.Println in hot path run"

	msg := "cycle " + suffix(i) // want "string concatenation in hot path run"
	_ = msg

	for j := 0; j < i; j++ {
		f := func() int { return m.n + j } // want "closure capturing .* inside a loop in hot path run"
		m.n = f()
	}

	ys := []int{9} // declint:allow hotalloc — fixture: one-time warmup table
	_ = ys

	if i < 0 {
		panic(fmt.Sprintf("dva: negative cycle %d", i)) // clean: panic argument
	}

	if m.n > 0 {
		defer m.note(i) // clean: paid only when the guard enables it
	}
	defer m.note(i) // want "unconditional defer in hot path run"
}

func (m *machine) note(int) {}

// route appends to its parameter, the scratch-threading idiom.
func route(ps []int, i int) []int {
	return append(ps, i)
}

func suffix(int) string { return "x" }

// dump is reached from run only through the error return, so it is cold
// and may format freely.
func (m *machine) dump() string {
	return fmt.Sprintf("n=%d scratch=%v", m.n, m.scratch)
}

// cold is never reached from a hotpath root.
func cold() []int {
	return []int{1, 2, 3}
}

// String is excluded from the hot closure even when hot code calls it.
func (m *machine) String() string {
	return fmt.Sprintf("m%d", m.n)
}
