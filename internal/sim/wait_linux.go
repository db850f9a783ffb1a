//go:build linux

package sim

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Values from <time.h> and <sys/timerfd.h> that package syscall does
// not name.
const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// itimerspec is struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

// kwait is the kernel timer under the timer goroutine: a timerfd, which
// counts in nanoseconds, read through the runtime's poller. The
// goroutine that waits on it is parked like one waiting for a socket —
// it holds no thread and no P — and the descriptor turning readable
// wakes whichever thread sits in the poller, at once.
type kwait struct {
	fd   uintptr
	file *os.File // fd, registered with the poller
	buf  [8]byte  // what a read returns: the expirations since the last one
}

// open makes the timer. It fails if the process is out of descriptors,
// or if the poller will not take this one (a read would then return at
// once instead of waiting).
func (k *kwait) open() error {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_create", errno)
	}
	file := os.NewFile(fd, "timerfd")
	if err := file.SetReadDeadline(time.Time{}); err != nil { // os.ErrNoDeadline: not pollable
		_ = file.Close() // nothing was written
		return err
	}
	k.fd, k.file = fd, file
	return nil
}

// arm sets the timer to expire d from now, replacing whatever it was set
// to. Not to be called concurrently with itself or with close.
func (k *kwait) arm(d time.Duration) {
	its := itimerspec{value: syscall.NsecToTimespec(int64(max(d, 1)))} // a zero value would disarm it
	// Cannot fail on an open timerfd with a positive value.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

// wait blocks until the timer has expired since the last wait. The read
// fails only on a closed file, and only the waiter closes it.
func (k *kwait) wait() { _, _ = k.file.Read(k.buf[:]) }

func (k *kwait) close() { _ = k.file.Close() } // nothing was written
