package mem

import (
	"testing"
	"testing/quick"
)

func TestBusReserveAndBusy(t *testing.T) {
	var b Bus
	if !b.FreeAt(0) || b.BusyAt(0) {
		t.Fatal("fresh bus should be free")
	}
	b.Reserve(5, 4) // busy [5, 9)
	for c := int64(5); c < 9; c++ {
		if !b.BusyAt(c) {
			t.Errorf("cycle %d should be busy", c)
		}
	}
	if b.BusyAt(9) || !b.FreeAt(9) {
		t.Error("cycle 9 should be free")
	}
	if b.FreeCycle() != 9 {
		t.Errorf("FreeCycle = %d", b.FreeCycle())
	}
	if b.BusyCycles != 4 {
		t.Errorf("BusyCycles = %d", b.BusyCycles)
	}
}

func TestBusReservePanicsWhenBusy(t *testing.T) {
	var b Bus
	b.Reserve(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.Reserve(5, 1)
}

func TestBusReservePanicsOnZeroLength(t *testing.T) {
	var b Bus
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.Reserve(0, 0)
}

func TestBusReset(t *testing.T) {
	var b Bus
	b.Reserve(0, 8)
	b.Reset()
	if !b.FreeAt(0) || b.BusyCycles != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var c Cache
	c.Init(0, 32)
}

func TestCacheMissThenHit(t *testing.T) {
	var c Cache
	c.Init(16, 32)
	if c.Lookup(0x1000) {
		t.Fatal("first touch must miss")
	}
	if !c.Lookup(0x1000) {
		t.Fatal("second touch must hit")
	}
	// Same line, different word.
	if !c.Lookup(0x1008) {
		t.Fatal("same-line access must hit")
	}
	// Different line.
	if c.Lookup(0x1020) {
		t.Fatal("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	var c Cache
	c.Init(4, 32) // 4 lines of 32B: addresses 128B apart conflict
	c.Lookup(0x0)
	c.Lookup(0x80) // maps to the same index, evicts
	if c.Lookup(0x0) {
		t.Fatal("evicted line must miss")
	}
}

func TestCacheWouldHitDoesNotAllocate(t *testing.T) {
	var c Cache
	c.Init(8, 32)
	if c.WouldHit(0x40) {
		t.Fatal("cold cache cannot hit")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("WouldHit must not count")
	}
	if c.Lookup(0x40) {
		t.Fatal("WouldHit must not have allocated")
	}
	if !c.WouldHit(0x40) {
		t.Fatal("line should now be present")
	}
}

func TestCacheInvalidate(t *testing.T) {
	var c Cache
	c.Init(8, 32)
	c.Lookup(0x100)
	c.Invalidate(0x100)
	if c.WouldHit(0x100) {
		t.Fatal("invalidate failed")
	}
	// Invalidating an absent or mismatched line is a no-op.
	c.Invalidate(0x9999)
}

func TestCacheReset(t *testing.T) {
	var c Cache
	c.Init(8, 32)
	c.Lookup(0x100)
	c.Reset()
	if c.WouldHit(0x100) || c.Hits != 0 || c.Misses != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: WouldHit always predicts the hit/miss outcome of the next
// Lookup of the same address.
func TestWouldHitPredictsLookup_Quick(t *testing.T) {
	var c Cache
	c.Init(16, 32)
	f := func(addr uint16) bool {
		a := uint64(addr)
		pred := c.WouldHit(a)
		return c.Lookup(a) == pred
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the bus is busy exactly for the reserved window.
func TestBusWindow_Quick(t *testing.T) {
	f := func(start uint16, n uint8) bool {
		var b Bus
		s, d := int64(start), int64(n%64)+1
		b.Reserve(s, d)
		// The model only answers BusyAt for cycles >= the reservation
		// point (earlier cycles are never queried by the simulators).
		return b.BusyAt(s) && b.BusyAt(s+d-1) && !b.BusyAt(s+d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiPortBus(t *testing.T) {
	var b Bus
	b.Init(2)
	b.Reserve(0, 10) // port 0 busy [0,10)
	if !b.FreeAt(5) {
		t.Fatal("second port should be free")
	}
	b.Reserve(5, 10) // port 1 busy [5,15)
	if b.FreeAt(7) {
		t.Fatal("both ports busy at 7")
	}
	if !b.BusyAt(7) {
		t.Fatal("BusyAt should report full occupancy")
	}
	// Port 0 frees at 10.
	if b.FreeCycle() != 10 {
		t.Fatalf("FreeCycle = %d", b.FreeCycle())
	}
	if !b.FreeAt(10) || b.BusyAt(12) {
		t.Fatal("port 0 should be free from 10")
	}
	if b.BusyCycles != 20 {
		t.Fatalf("BusyCycles = %d", b.BusyCycles)
	}
	b.Reset()
	if !b.FreeAt(0) || b.BusyCycles != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestMultiPortReservePanicsWhenAllBusy(t *testing.T) {
	var b Bus
	b.Init(2)
	b.Reserve(0, 10)
	b.Reserve(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.Reserve(5, 1)
}

func TestNewBusSinglePortEquivalence(t *testing.T) {
	var a, z Bus
	a.Init(1)
	a.Reserve(3, 4)
	z.Reserve(3, 4)
	if a.FreeCycle() != z.FreeCycle() || a.BusyAt(5) != z.BusyAt(5) {
		t.Fatal("Init(1) must behave like the zero value")
	}
}
