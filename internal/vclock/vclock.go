// Package vclock provides a virtual clock for deterministic simulation.
//
// All dbTouch latency accounting runs on virtual time: touch events carry
// virtual timestamps, the kernel charges simulated processing time per data
// access, and benchmarks measure virtual durations. This removes the host
// machine from the measurements and makes every experiment reproducible.
//
// Ownership contract: every exploration session owns exactly one Clock and
// is the only writer to it — virtual timelines of different sessions are
// independent and never merge. A Clock is nevertheless safe for concurrent
// use (all state is atomic), so monitors, the session manager, and tests
// may read Now from other goroutines while a session runs, and the -race
// suites can drive many sessions at once without false sharing hazards.
// Determinism is a property of single-writer use, not of the type: two
// goroutines racing Advance calls get a well-defined total but an
// unpredictable interleaving.
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock is a manually advanced virtual clock. The zero value is a clock at
// time zero, ready to use. See the package comment for the ownership
// contract: one session writes, anyone may read.
type Clock struct {
	now atomic.Int64 // virtual time in nanoseconds
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time as an offset from session start.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d. Negative durations are ignored:
// virtual time never goes backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}

// AdvanceTo moves the clock forward to t if t is in the future; it is a
// no-op otherwise and reports whether the clock moved.
func (c *Clock) AdvanceTo(t time.Duration) bool {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return false
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return true
		}
	}
}
