package vclock

import "time"

// Reset rewinds the clock to zero for reuse across experiment repetitions.
func (c *Clock) Reset() { c.now.Store(0) }

// Stopwatch measures elapsed virtual time between Start and Elapsed calls.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// NewStopwatch returns a stopwatch bound to clock, already started.
func NewStopwatch(clock *Clock) *Stopwatch {
	return &Stopwatch{clock: clock, start: clock.Now()}
}

// Restart resets the stopwatch origin to the current virtual time.
func (s *Stopwatch) Restart() { s.start = s.clock.Now() }

// Elapsed reports virtual time since the last Restart (or construction).
func (s *Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }
