// Package mem models the memory system shared by both architectures: a
// single pipelined memory port with a common address bus, a fixed load
// latency, latency-free stores, and a small direct-mapped scalar cache that
// holds scalar data only (vector accesses always go to main memory, §4.2).
package mem

import (
	"fmt"

	"decvec/internal/isa"
)

// Bus is the address bus of the memory system. The paper's machines have a
// single pipelined port; a multi-port configuration (the "what if we just
// added a second port?" comparison against the §7 bypass) widens it to
// several independent ports. A vector reference occupies one port for
// exactly VL cycles; a scalar reference for one cycle. Reservations are
// made only at the current cycle when some port is free, so port i is busy
// at cycle c exactly when c < busyUntil[i].
//
// The zero value is a single-port bus, matching the paper.
type Bus struct {
	busyUntil []int64 // lazily sized; nil means one port
	single    [1]int64
	// BusyCycles is the total number of port-cycles occupied.
	BusyCycles int64
}

// Init (re)initializes b in place to an idle bus with the given number of
// ports (minimum one), reusing the existing port array when it already fits.
func (b *Bus) Init(ports int) {
	if ports > 1 {
		if len(b.busyUntil) != ports {
			b.busyUntil = make([]int64, ports)
		}
	} else {
		b.busyUntil = nil
	}
	b.Reset()
}

// ports returns the per-port busy-until slice, defaulting to one port.
func (b *Bus) ports() []int64 {
	if b.busyUntil == nil {
		return b.single[:]
	}
	return b.busyUntil
}

// FreeAt reports whether some port can accept a new reference at cycle now.
func (b *Bus) FreeAt(now int64) bool {
	for _, u := range b.ports() {
		if now >= u {
			return true
		}
	}
	return false
}

// BusyAt reports whether every port is occupied at cycle now (the LD bit of
// the paper's state accounting: the memory subsystem cannot accept work).
func (b *Bus) BusyAt(now int64) bool { return !b.FreeAt(now) }

// Reserve occupies a free port for n cycles starting at now. It panics if
// no port is free — callers must check FreeAt first.
func (b *Bus) Reserve(now int64, n int64) {
	if n < 1 {
		panic(fmt.Sprintf("mem: bus reservation of %d cycles", n))
	}
	ps := b.ports()
	for i, u := range ps {
		if now >= u {
			ps[i] = now + n
			b.BusyCycles += n
			return
		}
	}
	panic(fmt.Sprintf("mem: bus reserved at %d while all ports busy", now))
}

// FreeCycle returns the first cycle at which some port is free.
func (b *Bus) FreeCycle() int64 {
	ps := b.ports()
	min := ps[0]
	for _, u := range ps[1:] {
		if u < min {
			min = u
		}
	}
	return min
}

// Reset clears the bus state.
func (b *Bus) Reset() {
	for i := range b.ports() {
		b.ports()[i] = 0
	}
	b.BusyCycles = 0
}

// Cache is the direct-mapped scalar cache. It filters scalar loads; scalar
// stores are write-through and always reach memory (they still update a
// present line). Vector references bypass it entirely.
type Cache struct {
	lineBytes uint64
	tags      []uint64
	valid     []bool

	Hits   int64
	Misses int64
}

// Init (re)initializes c in place to an empty cache with the given geometry,
// reusing the existing tag and valid arrays when the line count already
// matches. A Cache must be initialized before use.
func (c *Cache) Init(lines, lineBytes int) {
	if lines < 1 || lineBytes < isa.ElemSize {
		panic(fmt.Sprintf("mem: bad cache geometry %dx%dB", lines, lineBytes))
	}
	c.lineBytes = uint64(lineBytes)
	if len(c.tags) != lines {
		c.tags = make([]uint64, lines)
		c.valid = make([]bool, lines)
	}
	c.Reset()
}

// Lookup probes the cache for a scalar load at addr: on a miss the line is
// allocated. It returns whether the access hit.
func (c *Cache) Lookup(addr uint64) bool {
	line := addr / c.lineBytes
	idx := line % uint64(len(c.tags))
	if c.valid[idx] && c.tags[idx] == line {
		c.Hits++
		return true
	}
	c.Misses++
	c.valid[idx] = true
	c.tags[idx] = line
	return false
}

// WouldHit probes the cache for addr without updating contents or
// statistics. Schedulers use it to decide whether an access will need the
// memory bus before committing to the access.
func (c *Cache) WouldHit(addr uint64) bool {
	line := addr / c.lineBytes
	idx := line % uint64(len(c.tags))
	return c.valid[idx] && c.tags[idx] == line
}

// Store records a scalar store at addr. Stores are write-through with
// write-allocate: the stored line becomes (or stays) resident, so a reload
// of freshly written data — register spill traffic above all — hits.
// Stores never stall on the cache.
func (c *Cache) Store(addr uint64) {
	line := addr / c.lineBytes
	idx := line % uint64(len(c.tags))
	c.valid[idx] = true
	c.tags[idx] = line
}

// Invalidate drops the line covering addr, if present. Vector stores that
// overlap scalar-cached data use this to stay coherent.
func (c *Cache) Invalidate(addr uint64) {
	line := addr / c.lineBytes
	idx := line % uint64(len(c.tags))
	if c.valid[idx] && c.tags[idx] == line {
		c.valid[idx] = false
	}
}

// InvalidateStrided invalidates every line touched by n accesses starting at
// base and advancing step bytes each (a vector store's element sweep). The
// final cache state is exactly that of n individual Invalidate calls —
// invalidation is idempotent — but when the step is smaller than a line the
// touched lines form one contiguous range (consecutive elements are never a
// full line apart), so the sweep walks lines instead of elements: a
// unit-stride store of 128 elements over 32-byte lines does 32 probes, not
// 128.
func (c *Cache) InvalidateStrided(base uint64, step int64, n int) {
	if n <= 0 {
		return
	}
	if step > 0 && uint64(step) < c.lineBytes {
		first := base / c.lineBytes
		last := (base + uint64(step)*uint64(n-1)) / c.lineBytes
		if last-first+1 >= uint64(len(c.tags)) {
			// The range covers every index at least once, so walking it
			// would probe each entry repeatedly; sweep the (smaller) cache
			// instead and drop entries whose resident line falls inside.
			for idx := range c.tags {
				if c.valid[idx] && c.tags[idx] >= first && c.tags[idx] <= last {
					c.valid[idx] = false
				}
			}
			return
		}
		for line := first; line <= last; line++ {
			idx := line % uint64(len(c.tags))
			if c.valid[idx] && c.tags[idx] == line {
				c.valid[idx] = false
			}
		}
		return
	}
	// Wide or non-positive steps: element lines are disjoint (or wrap), so
	// per-element probing is already minimal.
	addr := base
	for i := 0; i < n; i++ {
		c.Invalidate(addr)
		addr += uint64(step)
	}
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.Hits, c.Misses = 0, 0
}
