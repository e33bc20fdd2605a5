//go:build unix

package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// Lock takes flock(LOCK_EX|LOCK_NB) on the directory's LOCK file. The
// kernel drops the lock with the last descriptor, so a crashed process
// never leaves its directory held.
func (d *dirFS) Lock() (io.Closer, error) {
	f, err := os.OpenFile(d.join(lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if errors.Is(err, syscall.EWOULDBLOCK) {
			err = ErrLocked
		}
		return nil, errors.Join(fmt.Errorf("wal: locking %s: %w", d.root, err), f.Close())
	}
	return f, nil
}
