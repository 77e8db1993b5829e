// Package simcache is the persistent, content-addressed store for simulation
// results. Every dvabench/dvasim/CI invocation re-simulates the same
// (trace, arch, config) grid; the simulators are bit-deterministic (pinned by
// the determinism and equivalence suites), so a result computed once is a
// result computed forever — provided the key proves nothing relevant changed.
//
// Key derivation (SHA-256 over):
//
//   - a format preamble (bumping it orphans all old entries),
//   - the model fingerprint (sim.ModelFingerprint, generated by cmd/modelhash
//     from the source of every model package — any model edit changes it, so
//     stale hits are structurally impossible),
//   - the SHA-256 of the trace's canonical binary encoding (trace.Hash),
//   - the architecture name,
//   - the canonical configuration encoding with SlowTick normalized out
//     (both tick modes are bit-identical, see DESIGN.md).
//
// Entries are written temp-file + atomic-rename, carry a per-entry SHA-256
// checksum over the payload, and any truncated, torn or bit-flipped entry
// reads as a miss and is quarantined aside (renamed *.corrupt) for
// postmortem. The store is safe for concurrent use by multiple goroutines
// and multiple processes sharing one directory: writers race benignly
// (identical content, last atomic rename wins), readers only ever observe
// complete files.
//
// The store is size-bounded: GC enforces a byte cap by evicting
// least-recently-used entries (mtime order; hits re-touch their entry).
// Counters (hits, misses, corrupt, evictions, writes) surface in the Suite,
// dvabench's cache table and dvasim -metrics-json.
//
// This package stays strictly outside the deterministic core: model packages
// must never import it (enforced by the declint determinism analyzer).
package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"decvec/internal/sim"
)

// entryMagic frames one cache file: magic, 32-byte payload checksum, payload.
const entryMagic = "DVSC1\n"

// entryExt and corruptExt name live and quarantined entries; tempPrefix
// marks in-progress writes (os.CreateTemp pattern in Put).
const (
	entryExt   = ".dvres"
	corruptExt = ".corrupt"
	tempPrefix = ".put-"
)

// tempOrphanGrace is how old a temp file must be before GC treats it as the
// orphan of a crashed writer and removes it. A live Put holds its temp file
// for milliseconds between CreateTemp and rename; an hour is conservatively
// beyond any real write, including one stalled on a saturated disk.
const tempOrphanGrace = time.Hour

// DefaultMaxBytes bounds the store when the caller gives no cap (512 MiB —
// two orders of magnitude above a full `dvabench -exp all` grid).
const DefaultMaxBytes = 512 << 20

// Options configures Open.
type Options struct {
	// MaxBytes is the GC size cap; 0 means DefaultMaxBytes, negative means
	// unbounded.
	MaxBytes int64
	// Fingerprint overrides sim.ModelFingerprint in key derivation.
	// Tests use it to prove that a fingerprint change is a full miss.
	Fingerprint string
}

// Stats are the store's lifetime counters (one process's view).
type Stats struct {
	Hits     int64 // entries served from disk
	Misses   int64 // lookups that found nothing usable
	Corrupt  int64 // entries rejected by framing/checksum/decode and quarantined
	Evicted  int64 // entries removed by GC
	Writes   int64 // entries written
	Verified int64 // hits re-simulated and byte-compared by cache verification
	Orphans  int64 // stale .put-* temp files from crashed writers removed by GC
}

// Store is one on-disk result cache rooted at a directory.
type Store struct {
	dir         string
	prefix      string // the cleaned dir and a separator: path(k) is one concatenation
	maxBytes    int64
	fingerprint string

	hits, misses, corrupt, evicted, writes, verified, orphans atomic.Int64
}

// DefaultDir returns the conventional cache location,
// $XDG_CACHE_HOME/decvec (via os.UserCacheDir), or "" when the environment
// defines no cache home.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "decvec")
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("simcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	prefix := filepath.Clean(dir)
	if !os.IsPathSeparator(prefix[len(prefix)-1]) {
		prefix += string(filepath.Separator)
	}
	s := &Store{dir: dir, prefix: prefix, maxBytes: opts.MaxBytes, fingerprint: opts.Fingerprint}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if s.fingerprint == "" {
		s.fingerprint = sim.ModelFingerprint
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Fingerprint returns the model fingerprint the store's keys are derived
// under.
func (s *Store) Fingerprint() string { return s.fingerprint }

// Stats returns a snapshot of the lifetime counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Corrupt:  s.corrupt.Load(),
		Evicted:  s.evicted.Load(),
		Writes:   s.writes.Load(),
		Verified: s.verified.Load(),
		Orphans:  s.orphans.Load(),
	}
}

// CountVerified records one verification re-simulation (the Suite performs
// the re-run; the store owns the counter so all cache observability lands in
// one Stats snapshot).
func (s *Store) CountVerified() { s.verified.Add(1) }

// Key is one content-addressed cache key (hex-encoded SHA-256).
type Key string

// KeyPrefixLen is the number of leading hex digits Prefix returns: 8 digits
// (32 bits) — far past collision risk for shard routing, short enough to
// stay readable in logs and stats.
const KeyPrefixLen = 8

// Prefix returns the key's leading hex digits, the unit of cache-affine
// shard routing: a sweep coordinator that sends every key sharing a prefix
// to the same worker guarantees that repeat sweeps of a grid land each cell
// on the worker whose disk tier already holds it.
func (k Key) Prefix() string {
	if len(k) < KeyPrefixLen {
		return string(k)
	}
	return string(k[:KeyPrefixLen])
}

// DeriveKey is the key derivation for (trace, arch, cfg) under a model
// fingerprint; extra distinguishes runs whose parameters live outside
// sim.Config (the OOO window and register pool). experiments.RunSpec.Key
// calls it for the suite's disk tier and for the sweep coordinator alike,
// so the keys a coordinator derives under sim.ModelFingerprint, without
// opening any store of its own, are byte-for-byte the keys the workers'
// disk tiers are organized by.
//
// The preimage is built in a stack buffer: format preamble, fingerprint,
// trace hash, arch, the configuration as %+v formats it (appendConfig) with
// SlowTick cleared, and extra.
func DeriveKey(fingerprint string, traceHash [sha256.Size]byte, arch string, cfg sim.Config, extra string) Key {
	var stack [512]byte
	b := append(stack[:0], "decvec-simcache-v1\n"...)
	b = append(b, fingerprint...)
	b = append(b, '\n')
	b = append(b, traceHash[:]...)
	b = append(b, arch...)
	b = append(b, '\n')
	cfg.SlowTick = false
	b = appendConfig(b, &cfg)
	b = append(b, '\n')
	b = append(b, extra...)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return Key(key[:])
}

// appendConfig appends c as fmt's %+v formats a Config value,
// "{MemLatency:50 AddDepth:6 ... SlowTick:false}", without boxing it. The
// fields are listed by hand; a test holds the output to %+v, which names
// every field in declaration order, so a new Config field cannot be
// silently dropped from the key.
func appendConfig(b []byte, c *sim.Config) []byte {
	b = append(b, '{')
	for i, f := range [...]struct {
		name string
		v    int64
	}{
		{"MemLatency", c.MemLatency}, {"AddDepth", c.AddDepth},
		{"MulDepth", c.MulDepth}, {"DivDepth", c.DivDepth},
		{"SqrtDepth", c.SqrtDepth}, {"QMovDepth", c.QMovDepth},
		{"ChainDelay", c.ChainDelay}, {"ScalarCacheLines", int64(c.ScalarCacheLines)},
		{"ScalarCacheLineBytes", int64(c.ScalarCacheLineBytes)}, {"IQSize", int64(c.IQSize)},
		{"ScalarQSize", int64(c.ScalarQSize)}, {"AVDQSize", int64(c.AVDQSize)},
		{"VADQSize", int64(c.VADQSize)}, {"VSAQSize", int64(c.VSAQSize)},
		{"MemPorts", int64(c.MemPorts)}, {"QMovUnits", int64(c.QMovUnits)},
	} {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, f.name...)
		b = append(b, ':')
		b = strconv.AppendInt(b, f.v, 10)
	}
	b = append(b, " Bypass:"...)
	b = strconv.AppendBool(b, c.Bypass)
	b = append(b, " LatencyJitter:"...)
	b = strconv.AppendInt(b, c.LatencyJitter, 10)
	b = append(b, " SlowTick:"...)
	b = strconv.AppendBool(b, c.SlowTick)
	return append(b, '}')
}

func (s *Store) path(k Key) string { return s.prefix + string(k) + entryExt }

// Get returns the cached result for the key, or ok=false on any miss —
// absent, truncated, torn, checksum-mismatched or undecodable entries all
// read as misses; the corrupt ones are quarantined aside.
func (s *Store) Get(k Key) (*sim.Result, bool) {
	var res *sim.Result
	_, ok := s.read(k, func(payload []byte) (err error) {
		res, err = sim.DecodeResultBytes(payload)
		return err
	})
	return res, ok
}

// GetBytes is Get without the decode: it returns the entry's canonical
// payload once its framing and checksum hold and sim.CheckResultBytes
// finds it decodable, so a payload that passes its checksum but would not
// decode is a quarantined miss here too. The store keeps no reference to
// the payload.
func (s *Store) GetBytes(k Key) ([]byte, bool) {
	return s.read(k, sim.CheckResultBytes)
}

// read returns the key's payload once the entry's framing and checksum
// hold and check accepts the payload. Anything else is a miss, and an
// entry that exists but fails is quarantined and counted corrupt. An entry
// that cannot be read at all (absent, or a directory in its place) is a
// plain miss.
func (s *Store) read(k Key, check func([]byte) error) ([]byte, bool) {
	e, data, err := readEntry(s.path(k))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	defer e.close()
	payload, err := checkEntry(data)
	if err == nil {
		err = check(payload)
	}
	if err != nil {
		s.quarantine(k)
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	// Touch the entry so GC's LRU order tracks use, not just creation.
	// Best-effort: a racing eviction only costs a future re-simulation.
	_ = e.touch()
	s.hits.Add(1)
	return payload, true
}

// Put stores the result under the key: encode, checksum, write to a temp
// file in the same directory, atomically rename into place. Concurrent
// writers for one key are benign — content is deterministic, so whichever
// rename lands last installs identical bytes.
func (s *Store) Put(k Key, r *sim.Result) error {
	_, err := s.PutBytes(k, r)
	return err
}

// PutBytes is Put that also returns the canonical payload it encoded, so a
// caller that wants the bytes does not encode the result again. The
// payload is returned even when the write fails.
func (s *Store) PutBytes(k Key, r *sim.Result) ([]byte, error) {
	// The result is encoded on the stack and framed into an entry of
	// exactly its size: the suite keeps the payload for as long as the run
	// stays in its memory tier.
	var stack [4096]byte
	enc := sim.AppendResult(stack[:0], r)
	head := len(entryMagic) + sha256.Size
	entry := make([]byte, head+len(enc))
	copy(entry, entryMagic)
	payload := entry[head:]
	copy(payload, enc)
	sum := sha256.Sum256(payload)
	copy(entry[len(entryMagic):], sum[:])
	f, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return payload, fmt.Errorf("simcache: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(entry)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(k))
	}
	if err != nil {
		os.Remove(tmp)
		return payload, fmt.Errorf("simcache: writing entry: %w", err)
	}
	s.writes.Add(1)
	return payload, nil
}

// checkEntry checks one cache file's framing and checksum and returns its
// payload.
func checkEntry(data []byte) ([]byte, error) {
	head := len(entryMagic) + sha256.Size
	if len(data) < head || string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("simcache: bad entry framing")
	}
	payload := data[head:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(entryMagic):head]) {
		return nil, fmt.Errorf("simcache: entry checksum mismatch")
	}
	return payload, nil
}

// quarantine moves a corrupt entry aside (best effort) so it stops matching
// lookups but stays available for postmortem.
func (s *Store) quarantine(k Key) {
	_ = os.Rename(s.path(k), s.prefix+string(k)+corruptExt)
}

// GC enforces the store's lifecycle bounds. Stale .put-* temp files — the
// orphans of writers that crashed between CreateTemp and rename — are removed
// once older than tempOrphanGrace, whatever the size cap; then entries (and
// quarantined corpses) are deleted oldest-mtime-first until the store fits.
// It returns the number of files removed.
func (s *Store) GC() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("simcache: %w", err)
	}
	type file struct {
		path  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	removed := 0
	cutoff := time.Now().Add(-tempOrphanGrace)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tempPrefix) {
			info, err := e.Info()
			if err != nil || !info.ModTime().Before(cutoff) {
				continue // in-flight write (or raced with its rename)
			}
			if err := os.Remove(s.prefix + name); err == nil {
				removed++
				s.orphans.Add(1)
			}
			continue
		}
		if !strings.HasSuffix(name, entryExt) && !strings.HasSuffix(name, corruptExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent eviction
		}
		f := file{path: s.prefix + name, size: info.Size(), mtime: info.ModTime().UnixNano()}
		files = append(files, f)
		total += f.size
	}
	if s.maxBytes < 0 || total <= s.maxBytes {
		return removed, nil
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].path < files[j].path // tie-break for same-second mtimes
	})
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(f.path); err == nil {
			total -= f.size
			removed++
			s.evicted.Add(1)
		}
	}
	return removed, nil
}

// VerifySample decides deterministically whether a hit on the key is
// re-simulated under `-cache-verify fraction`: the key's leading 64 bits,
// read as a uniform number in [0,1), are compared against the fraction. The
// same keys verify on every run, so a flaky pass cannot hide a mismatch.
func VerifySample(k Key, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	raw, err := hex.DecodeString(string(k[:16]))
	if err != nil || len(raw) != 8 {
		return true // malformed key: verify defensively
	}
	u := binary.BigEndian.Uint64(raw)
	return float64(u)/float64(1<<63)/2 < fraction
}
