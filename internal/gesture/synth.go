// Package gesture provides touch-gesture recognition and synthesis.
//
// The recognizer classifies raw touch streams into the paper's gesture
// vocabulary (tap, slide, pinch zoom, two-finger rotate — Figure 1). The
// synthesizer is the reproduction's replacement for a human finger: it
// emits digitizer-rate touch samples along parameterized trajectories so
// experiments can vary exactly what the paper varies — gesture speed,
// direction changes, pauses, and object size.
package gesture

import (
	"math"
	"slices"
	"time"

	"dbtouch/internal/touchos"
)

// Waypoint pins a location at an instant along a synthesized trajectory.
type Waypoint struct {
	At  time.Duration
	Loc touchos.Point
}

// Synth generates raw touch-event streams sampled at touchos.DigitizerHz.
type Synth struct{}

// period is the time between two digitizer samples.
const period = time.Second / touchos.DigitizerHz

// Tap produces a touch-down/up pair at loc.
func (s Synth) Tap(loc touchos.Point, at time.Duration) []touchos.TouchEvent {
	return s.appendTap(nil, loc, at)
}

func (s Synth) appendTap(dst []touchos.TouchEvent, loc touchos.Point, at time.Duration) []touchos.TouchEvent {
	return append(dst,
		touchos.TouchEvent{Finger: 0, Phase: touchos.TouchBegan, Loc: loc, Time: at},
		touchos.TouchEvent{Finger: 0, Phase: touchos.TouchEnded, Loc: loc, Time: at + 50*time.Millisecond},
	)
}

// Slide produces a single-finger straight slide from one point to another
// over dur, beginning at start.
func (s Synth) Slide(from, to touchos.Point, start, dur time.Duration) []touchos.TouchEvent {
	return s.appendSlide(nil, from, to, start, dur)
}

func (s Synth) appendSlide(dst []touchos.TouchEvent, from, to touchos.Point, start, dur time.Duration) []touchos.TouchEvent {
	return s.appendPath(dst, []Waypoint{{At: start, Loc: from}, {At: start + dur, Loc: to}})
}

// appendPath appends a single-finger gesture through the waypoints, with
// piecewise-linear interpolation, to dst. Consecutive waypoints at the
// same location synthesize a pause (the finger stays down, the digitizer
// keeps sampling the same spot). Waypoints must be in nondecreasing time
// order. dst grows once: a segment of duration d is sampled at
// a.At+k·period for k = 1..d/period, so the count is known before the
// first event is written.
func (s Synth) appendPath(dst []touchos.TouchEvent, points []Waypoint) []touchos.TouchEvent {
	if len(points) == 0 {
		return dst
	}
	n := 2
	for seg := 1; seg < len(points); seg++ {
		if segDur := points[seg].At - points[seg-1].At; segDur > 0 {
			n += int(segDur / period)
		}
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, touchos.TouchEvent{
		Finger: 0, Phase: touchos.TouchBegan, Loc: points[0].Loc, Time: points[0].At,
	})
	for seg := 1; seg < len(points); seg++ {
		a, b := points[seg-1], points[seg]
		segDur := b.At - a.At
		if segDur <= 0 {
			continue
		}
		for t := a.At + period; t <= b.At; t += period {
			frac := float64(t-a.At) / float64(segDur)
			loc := touchos.Point{
				X: a.Loc.X + (b.Loc.X-a.Loc.X)*frac,
				Y: a.Loc.Y + (b.Loc.Y-a.Loc.Y)*frac,
			}
			dst = append(dst, touchos.TouchEvent{
				Finger: 0, Phase: touchos.TouchMoved, Loc: loc, Time: t,
			})
		}
	}
	last := points[len(points)-1]
	return append(dst, touchos.TouchEvent{
		Finger: 0, Phase: touchos.TouchEnded, Loc: last.Loc, Time: last.At + period,
	})
}

// appendPauseResume appends a slide from 'from' to 'to' with a
// mid-gesture pause: the finger travels pauseAt of the way, rests for
// pauseDur, then completes the slide. Total moving time is dur.
func (s Synth) appendPauseResume(dst []touchos.TouchEvent, from, to touchos.Point, start, dur time.Duration, pauseAt float64, pauseDur time.Duration) []touchos.TouchEvent {
	mid := touchos.Point{
		X: from.X + (to.X-from.X)*pauseAt,
		Y: from.Y + (to.Y-from.Y)*pauseAt,
	}
	t1 := start + time.Duration(float64(dur)*pauseAt)
	return s.appendPath(dst, []Waypoint{
		{At: start, Loc: from},
		{At: t1, Loc: mid},
		{At: t1 + pauseDur, Loc: mid},
		{At: start + dur + pauseDur, Loc: to},
	})
}

// BackAndForth produces a slide that sweeps from 'from' to 'to' and back,
// repeated passes times (passes=1 is a single round trip). Each leg takes
// legDur.
func (s Synth) BackAndForth(from, to touchos.Point, start, legDur time.Duration, passes int) []touchos.TouchEvent {
	return s.appendBackAndForth(nil, from, to, start, legDur, passes)
}

func (s Synth) appendBackAndForth(dst []touchos.TouchEvent, from, to touchos.Point, start, legDur time.Duration, passes int) []touchos.TouchEvent {
	if passes < 1 {
		passes = 1
	}
	points := make([]Waypoint, 1, 1+2*passes)
	points[0] = Waypoint{At: start, Loc: from}
	t := start
	for p := 0; p < passes; p++ {
		t += legDur
		points = append(points, Waypoint{At: t, Loc: to})
		t += legDur
		points = append(points, Waypoint{At: t, Loc: from})
	}
	return s.appendPath(dst, points)
}

// twoFingerSteps counts the sampling instants start+k·period ≤ start+dur
// (k ≥ 1) of a two-finger gesture.
func twoFingerSteps(dur time.Duration) int {
	return max(int(dur/period), 0)
}

// Pinch produces a two-finger pinch about center: finger spread changes
// from spread0 to spread1 over dur. spread1 > spread0 is a zoom-in,
// spread1 < spread0 a zoom-out.
func (s Synth) Pinch(center touchos.Point, spread0, spread1 float64, start, dur time.Duration) []touchos.TouchEvent {
	return s.appendPinch(nil, center, spread0, spread1, start, dur)
}

func (s Synth) appendPinch(dst []touchos.TouchEvent, center touchos.Point, spread0, spread1 float64, start, dur time.Duration) []touchos.TouchEvent {
	place := func(spread float64) (touchos.Point, touchos.Point) {
		h := spread / 2
		return touchos.Point{X: center.X, Y: center.Y - h},
			touchos.Point{X: center.X, Y: center.Y + h}
	}
	dst = slices.Grow(dst, 4+2*twoFingerSteps(dur))
	p0, p1 := place(spread0)
	dst = append(dst,
		touchos.TouchEvent{Finger: 0, Phase: touchos.TouchBegan, Loc: p0, Time: start},
		touchos.TouchEvent{Finger: 1, Phase: touchos.TouchBegan, Loc: p1, Time: start},
	)
	for t := start + period; t <= start+dur; t += period {
		frac := float64(t-start) / float64(dur)
		q0, q1 := place(spread0 + (spread1-spread0)*frac)
		dst = append(dst,
			touchos.TouchEvent{Finger: 0, Phase: touchos.TouchMoved, Loc: q0, Time: t},
			touchos.TouchEvent{Finger: 1, Phase: touchos.TouchMoved, Loc: q1, Time: t},
		)
	}
	q0, q1 := place(spread1)
	return append(dst,
		touchos.TouchEvent{Finger: 0, Phase: touchos.TouchEnded, Loc: q0, Time: start + dur + period},
		touchos.TouchEvent{Finger: 1, Phase: touchos.TouchEnded, Loc: q1, Time: start + dur + period},
	)
}

// Rotate produces a two-finger rotation about center by angle radians
// (positive is counterclockwise) at the given radius over dur.
func (s Synth) Rotate(center touchos.Point, radius, angle float64, start, dur time.Duration) []touchos.TouchEvent {
	return s.appendRotate(nil, center, radius, angle, start, dur)
}

func (s Synth) appendRotate(dst []touchos.TouchEvent, center touchos.Point, radius, angle float64, start, dur time.Duration) []touchos.TouchEvent {
	place := func(theta float64) (touchos.Point, touchos.Point) {
		return touchos.Point{
				X: center.X + radius*math.Cos(theta),
				Y: center.Y + radius*math.Sin(theta),
			}, touchos.Point{
				X: center.X - radius*math.Cos(theta),
				Y: center.Y - radius*math.Sin(theta),
			}
	}
	dst = slices.Grow(dst, 4+2*twoFingerSteps(dur))
	p0, p1 := place(0)
	dst = append(dst,
		touchos.TouchEvent{Finger: 0, Phase: touchos.TouchBegan, Loc: p0, Time: start},
		touchos.TouchEvent{Finger: 1, Phase: touchos.TouchBegan, Loc: p1, Time: start},
	)
	for t := start + period; t <= start+dur; t += period {
		frac := float64(t-start) / float64(dur)
		q0, q1 := place(angle * frac)
		dst = append(dst,
			touchos.TouchEvent{Finger: 0, Phase: touchos.TouchMoved, Loc: q0, Time: t},
			touchos.TouchEvent{Finger: 1, Phase: touchos.TouchMoved, Loc: q1, Time: t},
		)
	}
	q0, q1 := place(angle)
	return append(dst,
		touchos.TouchEvent{Finger: 0, Phase: touchos.TouchEnded, Loc: q0, Time: start + dur + period},
		touchos.TouchEvent{Finger: 1, Phase: touchos.TouchEnded, Loc: q1, Time: start + dur + period},
	)
}

// Merge interleaves several event streams into one time-ordered stream
// (stable for equal timestamps).
func Merge(streams ...[]touchos.TouchEvent) []touchos.TouchEvent {
	var out []touchos.TouchEvent
	for _, s := range streams {
		out = append(out, s...)
	}
	// Insertion sort keeps the merge stable; streams are individually
	// sorted and typically short.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Time < out[j-1].Time; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
