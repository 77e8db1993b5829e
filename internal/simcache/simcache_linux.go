package simcache

import "syscall"

// entryHandle is an entry file open for reading: a hit reads the entry
// and refreshes its LRU time through this one descriptor.
type entryHandle int

// readEntry opens the entry at path and reads it whole into one buffer of
// the size fstat reports. A directory in an entry's place opens but fails
// the read with EISDIR, as in os.ReadFile. On success the caller owns the
// handle and closes it.
func readEntry(path string) (entryHandle, []byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return -1, nil, err
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		syscall.Close(fd)
		return -1, nil, err
	}
	buf := make([]byte, st.Size)
	n := 0
	for n < len(buf) {
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			syscall.Close(fd)
			return -1, nil, err
		}
		if m == 0 {
			break
		}
		n += m
	}
	return entryHandle(fd), buf[:n], nil
}

// touch sets the entry's access and modification times to now, feeding
// GC's LRU order: utimensat with a null path acts on the descriptor
// itself, and null times mean "now".
func (e entryHandle) touch() error {
	_, _, errno := syscall.Syscall6(syscall.SYS_UTIMENSAT, uintptr(e), 0, 0, 0, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

func (e entryHandle) close() { syscall.Close(int(e)) }
