package gesture

import (
	"time"

	"dbtouch/internal/touchos"
)

// PauseResume produces a slide from 'from' to 'to' with a mid-gesture
// pause: the finger travels pauseAt of the way, rests for pauseDur, then
// completes the slide. Total moving time is dur.
func (s Synth) PauseResume(from, to touchos.Point, start, dur time.Duration, pauseAt float64, pauseDur time.Duration) []touchos.TouchEvent {
	return s.appendPauseResume(nil, from, to, start, dur, pauseAt, pauseDur)
}
