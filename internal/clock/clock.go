// Package clock is the time seam of the runtime: every layer that waits,
// ticks or reads the wall clock does so through the Clock interface, so the
// same code runs on real timers in production and on a deterministic
// virtual-time event queue in tests and chaos campaigns (internal/harness).
//
// Two implementations ship with the package:
//
//   - Real delegates to package time. It is the default everywhere a Clock
//     is injectable; its zero value is ready to use.
//   - Virtual (virtual.go) keeps a logical event queue and only moves when
//     told to. A thousand nodes' worth of gossip ticks, failure sweeps and
//     delayed deliveries execute in strict (time, scheduling-order) order on
//     the caller's goroutine, so a seeded scenario replays byte-identically.
package clock

import "time"

// Clock tells time and schedules work. Implementations are safe for
// concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run once, d from now. The returned Timer
	// can cancel the call before it fires.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker returns a ticker firing every d on its channel. Ticks that
	// find the channel full are coalesced, like time.Ticker's.
	NewTicker(d time.Duration) Ticker
}

// Timer is a cancellable pending AfterFunc call.
type Timer interface {
	// Stop cancels the call, reporting whether it was still pending (false
	// means it already fired or was already stopped).
	Stop() bool
}

// Ticker delivers repeated ticks on a channel until stopped.
type Ticker interface {
	// C returns the tick channel.
	C() <-chan time.Time
	// Stop ends the ticks. It does not close the channel.
	Stop()
}

// Real is the production clock: a stateless veneer over package time. The
// zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (rt realTicker) C() <-chan time.Time { return rt.t.C }
func (rt realTicker) Stop()               { rt.t.Stop() }
