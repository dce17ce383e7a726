package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t.  It sleeps in the kernel rather than on
// the Go timer wheel: with idle Ps the runtime's netpoller rounds
// sub-millisecond timers up to a millisecond, which would add about
// half a millisecond of generator lateness to every request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
