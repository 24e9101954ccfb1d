package transport

import (
	"errors"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// osAlarm is a kernel timer (timerfd) watched by the runtime's network
// poller and read with a deadline. The kernel timer ends an idle process's
// poll on time, where a runtime timer alone fires a millisecond late; the
// deadline, a runtime timer, is looked at on every goroutine switch of a
// busy process, which asks the poller only when it runs out of work. The
// waiter holds no thread, so unlike one coming back from a sleep in the
// kernel it never queues for a processor behind whoever took its own.
type osAlarm struct {
	f    *os.File
	rc   syscall.RawConn
	arm  func(fd uintptr) // timerfd_settime(spec); made once, so set allocates nothing
	spec struct{ interval, value syscall.Timespec }
	buf  [8]byte
}

// newAlarm falls back to the runtime timer if the kernel or the poller
// refuses the descriptor.
func newAlarm() alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerAlarm()
	}
	a := &osAlarm{f: os.NewFile(fd, "timerfd")}
	a.arm = func(fd uintptr) {
		syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
	}
	a.rc, _ = a.f.SyscallConn()
	if a.f.SetReadDeadline(time.Time{}) != nil { // the poller did not take it
		a.f.Close()
		return newTimerAlarm()
	}
	return a
}

func (a *osAlarm) set(d time.Duration) {
	a.spec.value = syscall.NsecToTimespec(int64(max(d, 1))) // zero would disarm
	_ = a.rc.Control(a.arm)                                 // fails once stopped, as the deadline does
	_ = a.f.SetReadDeadline(time.Now().Add(d))
}

func (a *osAlarm) wait() bool {
	_, err := a.f.Read(a.buf[:]) // the expiry count, or a deadline error
	return !errors.Is(err, os.ErrClosed)
}

func (a *osAlarm) stop() { a.f.Close() }
