//go:build !linux

package simcache

import (
	"os"
	"time"
)

// entryHandle names an entry file that was read whole: off Linux a hit
// reads the entry with os.ReadFile and touches it again by path.
type entryHandle string

// readEntry reads the entry at path whole.
func readEntry(path string) (entryHandle, []byte, error) {
	data, err := os.ReadFile(path)
	return entryHandle(path), data, err
}

// touch bumps the entry's mtime to now, feeding GC's LRU order.
func (e entryHandle) touch() error {
	now := time.Now()
	return os.Chtimes(string(e), now, now)
}

func (entryHandle) close() {}
