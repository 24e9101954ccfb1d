//go:build !linux

package transport

// newAlarm is the runtime timer: in an idle process a sub-millisecond delay
// takes about a millisecond.
func newAlarm() alarm { return newTimerAlarm() }
