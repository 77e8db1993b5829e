package simcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"decvec/internal/sim"
)

func testResult() *sim.Result {
	r := &sim.Result{
		Arch:   "DVA",
		Config: sim.DefaultConfig(30),
		Cycles: 12345,
		Counts: sim.Counts{ScalarInsts: 100, VectorInsts: 40, VectorOps: 2560, BasicBlocks: 9, SpillMemOps: 3, MemInsts: 25},
		Traffic: sim.MemTraffic{
			LoadElems:  2000,
			StoreElems: 900,
		},
		AVDQBusy: sim.NewHistogram(8),
		Queues: []sim.QueueStat{
			{Name: "AVDQ", Cap: 256, Pushes: 41, Pops: 41, Peak: 12, MeanLen: 3.5, FullCycles: 2},
		},
	}
	r.States.Observe(sim.MakeState(true, false, true))
	r.States.ObserveN(sim.MakeState(false, false, false), 41)
	r.AVDQBusy.Buckets[3] = 7
	r.Stalls[0] = 17
	return r
}

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testKey(s *Store, extra string) Key {
	var th [sha256.Size]byte
	copy(th[:], "trace-hash-for-tests")
	return s.Key(th, "DVA", sim.DefaultConfig(30), extra)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t, Options{})
	k := testKey(s, "")
	want := testResult()
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, func() *sim.Result {
		// SlowTick is canonicalized out of the stored form.
		w := *want
		w.Config.SlowTick = false
		return &w
	}()) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// entryFile returns the single live entry file in the store directory.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "*"+entryExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestTruncatedEntryIsMissAndQuarantined(t *testing.T) {
	s := testStore(t, Options{})
	k := testKey(s, "")
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: keep the header plus half the payload.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated entry served as a hit")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 corrupt / 1 miss", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still live at %s", path)
	}
	quarantined, _ := filepath.Glob(filepath.Join(s.Dir(), "*"+corruptExt))
	if len(quarantined) != 1 {
		t.Errorf("want 1 quarantined file, got %v", quarantined)
	}
	// The quarantined corpse must not satisfy future lookups.
	if _, ok := s.Get(k); ok {
		t.Fatal("hit after quarantine")
	}
}

func TestBitFlippedEntryIsMissAndQuarantined(t *testing.T) {
	s := testStore(t, Options{})
	k := testKey(s, "")
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the payload so the checksum no longer matches.
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 corrupt", st)
	}
	quarantined, _ := filepath.Glob(filepath.Join(s.Dir(), "*"+corruptExt))
	if len(quarantined) != 1 {
		t.Errorf("want 1 quarantined file, got %v", quarantined)
	}
}

// An entry whose checksum holds over a payload that does not decode — a
// writer from another codec, or corruption before the checksum was taken —
// is corrupt too: both reads miss, quarantine it and count it, and GetBytes
// must not hand the payload out undecoded.
func TestChecksummedUndecodablePayloadIsCorrupt(t *testing.T) {
	for _, read := range []struct {
		name string
		get  func(*Store, Key) bool
	}{
		{"Get", func(s *Store, k Key) bool { _, ok := s.Get(k); return ok }},
		{"GetBytes", func(s *Store, k Key) bool { _, ok := s.GetBytes(k); return ok }},
	} {
		t.Run(read.name, func(t *testing.T) {
			s := testStore(t, Options{})
			k := testKey(s, "")
			payload, err := s.PutBytes(k, testResult())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, sim.AppendResult(nil, testResult())) {
				t.Fatal("PutBytes returned bytes other than the canonical encoding")
			}
			// Drop the payload's last byte and checksum what is left.
			bad := payload[:len(payload)-1]
			if sim.CheckResultBytes(bad) == nil {
				t.Fatal("the cut payload still decodes")
			}
			sum := sha256.Sum256(bad)
			path := entryFile(t, s)
			entry := append(append([]byte(entryMagic), sum[:]...), bad...)
			if err := os.WriteFile(path, entry, 0o644); err != nil {
				t.Fatal(err)
			}
			if read.get(s, k) {
				t.Fatal("a checksummed undecodable payload was served as a hit")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want 1 corrupt, 1 miss, 0 hits", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry still live at %s", path)
			}
			if q, _ := filepath.Glob(filepath.Join(s.Dir(), "*"+corruptExt)); len(q) != 1 {
				t.Errorf("want 1 quarantined file, got %v", q)
			}
		})
	}
}

func TestConcurrentWritersOneKey(t *testing.T) {
	// Two Store instances over one directory model two processes sharing a
	// cache. Both hammer the same key; readers must only ever observe
	// complete entries.
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(a, "")
	if k != testKey(b, "") {
		t.Fatal("stores over one dir derive different keys")
	}
	res := testResult()
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Put(k, res); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, ok := s.GetBytes(k); !ok {
					t.Error("miss between writes: reader saw a torn entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, ok := a.Get(k); !ok || got.Cycles != res.Cycles {
		t.Fatalf("final read: ok=%v", ok)
	}
	// No temp files may be left behind.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".put-*"))
	if len(tmps) != 0 {
		t.Errorf("leaked temp files: %v", tmps)
	}
	if st := a.Stats(); st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 0 corrupt", st)
	}
}

func TestFingerprintChangeIsFullMiss(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, Options{Fingerprint: "mh1:old"})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(old, "")
	if err := old.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := old.Get(k); !ok {
		t.Fatal("warm store missed")
	}
	// A model edit changes the fingerprint; every key the new store derives
	// must land beside, never on, the old entries.
	niu, err := Open(dir, Options{Fingerprint: "mh1:new"})
	if err != nil {
		t.Fatal(err)
	}
	nk := testKey(niu, "")
	if nk == k {
		t.Fatal("fingerprint change did not change the key")
	}
	if _, ok := niu.Get(nk); ok {
		t.Fatal("new fingerprint hit an old entry")
	}
}

func TestGCEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult()
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = testKey(s, strings.Repeat("x", i+1))
		if err := s.Put(keys[i], res); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes so LRU order is unambiguous (filesystem mtime
		// granularity can be coarse).
		old := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(s.path(keys[i]), old, old); err != nil {
			t.Fatal(err)
		}
	}
	entrySize := func(k Key) int64 {
		info, err := os.Stat(s.path(k))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}(keys[0])

	// Cap the store at two entries: GC must remove the two oldest.
	capped, err := Open(dir, Options{MaxBytes: 2 * entrySize})
	if err != nil {
		t.Fatal(err)
	}
	removed, err := capped.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("GC removed %d, want 2", removed)
	}
	for i, k := range keys {
		_, err := os.Stat(s.path(k))
		if gone := os.IsNotExist(err); gone != (i < 2) {
			t.Errorf("entry %d: gone=%v, want oldest two evicted", i, gone)
		}
	}
	if st := capped.Stats(); st.Evicted != 2 {
		t.Errorf("stats = %+v, want 2 evicted", st)
	}
	// A second pass finds the store within budget.
	if removed, err := capped.GC(); err != nil || removed != 0 {
		t.Errorf("second GC: removed %d err %v", removed, err)
	}
}

func TestGCUnboundedNeverEvicts(t *testing.T) {
	s := testStore(t, Options{MaxBytes: -1})
	if err := s.Put(testKey(s, ""), testResult()); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.GC(); err != nil || removed != 0 {
		t.Errorf("GC on unbounded store: removed %d err %v", removed, err)
	}
}

func TestVerifySample(t *testing.T) {
	keys := make([]Key, 0, 256)
	s := testStore(t, Options{})
	var th [sha256.Size]byte
	for i := 0; i < 256; i++ {
		th[0] = byte(i)
		keys = append(keys, s.Key(th, "DVA", sim.DefaultConfig(1), ""))
	}
	for _, k := range keys {
		if VerifySample(k, 0) {
			t.Fatalf("fraction 0 selected %s", k)
		}
		if !VerifySample(k, 1) {
			t.Fatalf("fraction 1 skipped %s", k)
		}
		if VerifySample(k, 0.5) != VerifySample(k, 0.5) {
			t.Fatalf("non-deterministic selection for %s", k)
		}
	}
	// The selection rate should roughly track the fraction.
	n := 0
	for _, k := range keys {
		if VerifySample(k, 0.5) {
			n++
		}
	}
	if n < 64 || n > 192 {
		t.Errorf("fraction 0.5 selected %d/256 keys", n)
	}
}

func TestKeySeparatesInputs(t *testing.T) {
	s := testStore(t, Options{})
	var th, th2 [sha256.Size]byte
	th2[0] = 1
	base := s.Key(th, "DVA", sim.DefaultConfig(30), "")
	cfg2 := sim.DefaultConfig(30)
	cfg2.MemLatency = 31
	distinct := []Key{
		s.Key(th2, "DVA", sim.DefaultConfig(30), ""),
		s.Key(th, "REF", sim.DefaultConfig(30), ""),
		s.Key(th, "DVA", cfg2, ""),
		s.Key(th, "DVA", sim.DefaultConfig(30), "window=16"),
	}
	for i, k := range distinct {
		if k == base {
			t.Errorf("variant %d collided with base key", i)
		}
	}
	// SlowTick is normalized out: both tick modes share one entry.
	slow := sim.DefaultConfig(30)
	slow.SlowTick = true
	if s.Key(th, "DVA", slow, "") != base {
		t.Error("SlowTick changed the key; fast and slow tick must share entries")
	}
}

// The key derivation is pinned byte for byte: this key was derived through
// sha256.New, fmt.Sprintf and hex.EncodeToString before DeriveKey built its
// preimage in a stack buffer, and every worker's disk tier is organized by
// it. Each sweep cell's key is derived twice, by the coordinator and by the
// worker, so DeriveKey allocates once: the key string.
func TestDeriveKeyGoldenAndAllocs(t *testing.T) {
	var th [sha256.Size]byte
	for i := range th {
		th[i] = byte(i * 7)
	}
	cfg := sim.DefaultConfig(50)
	cfg.SlowTick = true
	cfg.Bypass = true
	cfg.LatencyJitter = 3
	derive := func() Key { return DeriveKey("0123456789abcdef", th, "BYP", cfg, "window=64 physregs=96") }
	if got, want := derive(), Key("70acd0df50f95dbb0a1ab2e39955b5a7d7dcb26f1aa9d8b8b85c23bf4c987205"); got != want {
		t.Errorf("DeriveKey drifted:\n got %s\nwant %s", got, want)
	}
	if n := testing.AllocsPerRun(50, func() { derive() }); n > 1 {
		t.Errorf("DeriveKey: %v allocs, want at most 1", n)
	}
}

// appendConfig must write exactly what fmt's %+v writes for a Config value,
// the key's form since the first store, over seeded configs with every
// integer at its extremes and both bool values.
func TestAppendConfigMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []int64{0, 1, -1, 9, 10, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	for i := 0; i < 500; i++ {
		cfg := sim.DefaultConfig(50)
		v := reflect.ValueOf(&cfg).Elem()
		for f := 0; f < v.NumField(); f++ {
			if i == 0 {
				break // the default config itself
			}
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Int, reflect.Int64:
				if rng.Intn(2) == 0 {
					fv.SetInt(extremes[rng.Intn(len(extremes))])
				} else {
					fv.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
				}
			case reflect.Bool:
				fv.SetBool(rng.Intn(2) == 0)
			default:
				t.Fatalf("Config.%s is a %s; appendConfig writes only ints and bools", v.Type().Field(f).Name, fv.Kind())
			}
		}
		if got, want := string(appendConfig(nil, &cfg)), fmt.Sprintf("%+v", cfg); got != want {
			t.Fatalf("appendConfig differs from %%+v:\n got %s\nwant %s", got, want)
		}
	}
}

// Every sim.Config field is named in the key, in declaration order: a
// field added to Config but not to appendConfig fails here, as it would
// have been silently left out of every cache key.
func TestAppendConfigNamesEveryField(t *testing.T) {
	cfg := sim.DefaultConfig(50)
	out := string(appendConfig(nil, &cfg))
	typ := reflect.TypeOf(cfg)
	at := 0
	for f := 0; f < typ.NumField(); f++ {
		name := typ.Field(f).Name + ":"
		i := strings.Index(out[at:], name)
		if i < 0 {
			t.Fatalf("appendConfig does not name Config.%s after position %d: %s", typ.Field(f).Name, at, out)
		}
		at += i + len(name)
	}
}

func TestGCRemovesAgedTempOrphans(t *testing.T) {
	s := testStore(t, Options{})
	k := testKey(s, "")
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	// Plant two temp files as a crashed writer would leave them: one aged
	// past the grace period (an orphan), one fresh (an in-flight write).
	orphan := filepath.Join(s.Dir(), ".put-123456")
	fresh := filepath.Join(s.Dir(), ".put-654321")
	for _, p := range []string{orphan, fresh} {
		if err := os.WriteFile(p, []byte("torn partial entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempOrphanGrace)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	removed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("GC removed %d files, want 1 (the aged orphan)", removed)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("aged .put-* orphan survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh .put-* temp file was removed; GC must leave in-flight writes alone")
	}
	if st := s.Stats(); st.Orphans != 1 {
		t.Errorf("Stats.Orphans = %d, want 1", st.Orphans)
	}
	// The live entry is untouched and still served.
	if _, ok := s.Get(k); !ok {
		t.Error("live entry lost during orphan sweep")
	}
}

func TestGCOrphanSweepIgnoresSizeCap(t *testing.T) {
	// Orphan removal is lifecycle hygiene, not size enforcement: it happens
	// even when the store is unbounded and under any cap.
	s := testStore(t, Options{MaxBytes: -1})
	orphan := filepath.Join(s.Dir(), ".put-unbounded")
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempOrphanGrace)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.GC(); err != nil || removed != 1 {
		t.Errorf("GC on unbounded store: removed %d err %v, want 1 orphan removed", removed, err)
	}
}
