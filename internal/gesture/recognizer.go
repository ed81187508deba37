package gesture

import (
	"fmt"
	"math"
	"time"

	"dbtouch/internal/touchos"
)

// EventKind classifies a recognized gesture event.
type EventKind uint8

// Gesture kinds (paper Figure 1).
const (
	// Tap is a quick touch with negligible movement: reveal one value.
	Tap EventKind = iota
	// SlideBegan/SlideStep/SlideEnded bracket the main query-processing
	// gesture: every SlideStep is "a request to run an operator over part
	// of the data".
	SlideBegan
	SlideStep
	SlideEnded
	// PinchStep/PinchEnded report a running two-finger zoom; Scale > 1 is
	// zoom-in (next level of detail), < 1 zoom-out.
	PinchStep
	PinchEnded
	// RotateStep/RotateEnded report a two-finger rotation; a completed
	// quarter turn flips the physical design (row-store ↔ column-store).
	RotateStep
	RotateEnded
	// Cancelled reports an aborted touch sequence.
	Cancelled
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Tap:
		return "tap"
	case SlideBegan:
		return "slide-began"
	case SlideStep:
		return "slide-step"
	case SlideEnded:
		return "slide-ended"
	case PinchStep:
		return "pinch-step"
	case PinchEnded:
		return "pinch-ended"
	case RotateStep:
		return "rotate-step"
	case RotateEnded:
		return "rotate-ended"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is a recognized gesture sample.
type Event struct {
	Kind EventKind
	// Loc is the touch location (midpoint for two-finger gestures) in
	// screen coordinates.
	Loc  touchos.Point
	Time time.Duration
	// Velocity is the smoothed finger velocity in cm/s (slides only).
	Velocity touchos.Point
	// Scale is the cumulative pinch factor since the pinch began.
	Scale float64
	// Angle is the cumulative rotation in radians since the rotate began.
	Angle float64
}

// Config tunes recognition thresholds.
type Config struct {
	// TapSlop is the maximum movement (cm) for a touch to count as a tap.
	TapSlop float64
	// TapMaxDuration is the longest press that still counts as a tap.
	TapMaxDuration time.Duration
	// PinchThreshold is the minimum |log2(scale)| before a two-finger
	// gesture commits to pinch.
	PinchThreshold float64
	// RotateThreshold is the minimum |angle| (radians) before a
	// two-finger gesture commits to rotation.
	RotateThreshold float64
	// VelocityAlpha is the EMA smoothing factor for slide velocity.
	VelocityAlpha float64
}

// DefaultConfig returns thresholds tuned for centimeter coordinates.
func DefaultConfig() Config {
	return Config{
		TapSlop:         0.2,
		TapMaxDuration:  300 * time.Millisecond,
		PinchThreshold:  0.1,
		RotateThreshold: 0.15,
		VelocityAlpha:   0.4,
	}
}

type fingerState struct {
	down      bool
	start     touchos.Point
	startTime time.Duration
	last      touchos.Point
	lastTime  time.Duration
	moved     bool
	velocity  touchos.Point
}

// twoFingerMode tracks what a two-finger gesture has committed to.
type twoFingerMode uint8

const (
	twoFingerUndecided twoFingerMode = iota
	twoFingerPinch
	twoFingerRotate
)

// Recognizer converts delivered touch events into gesture events. Feed it
// events in time order; it is stateful across calls.
type Recognizer struct {
	cfg     Config
	fingers [2]fingerState
	nActive int

	// two-finger gesture state
	mode        twoFingerMode
	startSpread float64
	startAngle  float64
	lastScale   float64
	lastAngle   float64
	// endedMode holds the committed mode after the first finger lifts so
	// the gesture-end event fires when the second lifts, with both
	// fingers at their final locations.
	endedMode twoFingerMode

	// out is the buffer Feed returns, reused by the next Feed.
	out []Event
}

// NewRecognizer returns a recognizer with the given config; a zero Config
// selects DefaultConfig.
func NewRecognizer(cfg Config) *Recognizer {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	return &Recognizer{cfg: cfg, lastScale: 1}
}

// Feed consumes one touch event and returns the gesture events it
// completes (possibly none). The slice is the recognizer's own buffer:
// it is valid until the next Feed, so a caller that keeps events copies
// them.
func (r *Recognizer) Feed(e touchos.TouchEvent) []Event {
	if e.Finger < 0 || e.Finger > 1 {
		return nil // only two simultaneous fingers are modeled
	}
	r.out = r.out[:0]
	f := &r.fingers[e.Finger]
	switch e.Phase {
	case touchos.TouchBegan:
		if !f.down {
			r.nActive++
		}
		*f = fingerState{down: true, start: e.Loc, startTime: e.Time, last: e.Loc, lastTime: e.Time}
		if r.nActive == 2 {
			r.mode = twoFingerUndecided
			r.startSpread = r.spread()
			r.startAngle = r.angle()
			r.lastScale = 1
			r.lastAngle = 0
		}
	case touchos.TouchMoved:
		if !f.down {
			break
		}
		r.onMove(f, e)
		f.last = e.Loc
		f.lastTime = e.Time
	case touchos.TouchEnded:
		if !f.down {
			break
		}
		// The end event carries the finger's final location (any
		// undelivered move was coalesced into it).
		f.last = e.Loc
		f.lastTime = e.Time
		r.onEnd(f, e)
		f.down = false
		r.nActive--
	case touchos.TouchCancelled:
		if !f.down {
			break
		}
		f.down = false
		r.nActive--
		r.mode = twoFingerUndecided
		r.out = append(r.out, Event{Kind: Cancelled, Loc: e.Loc, Time: e.Time})
	}
	return r.out
}

func (r *Recognizer) onMove(f *fingerState, e touchos.TouchEvent) {
	// Update smoothed velocity.
	if dt := e.Time - f.lastTime; dt > 0 {
		inst := touchos.Point{
			X: (e.Loc.X - f.last.X) / dt.Seconds(),
			Y: (e.Loc.Y - f.last.Y) / dt.Seconds(),
		}
		a := r.cfg.VelocityAlpha
		f.velocity = touchos.Point{
			X: a*inst.X + (1-a)*f.velocity.X,
			Y: a*inst.Y + (1-a)*f.velocity.Y,
		}
	}
	if r.nActive == 2 {
		r.twoFingerMove(e)
		return
	}
	if !f.moved && e.Loc.Dist(f.start) > r.cfg.TapSlop {
		f.moved = true
		r.out = append(r.out, Event{Kind: SlideBegan, Loc: f.start, Time: f.startTime})
	}
	if f.moved {
		r.out = append(r.out, Event{Kind: SlideStep, Loc: e.Loc, Time: e.Time, Velocity: f.velocity})
	}
}

func (r *Recognizer) onEnd(f *fingerState, e touchos.TouchEvent) {
	if r.nActive == 2 {
		// First finger up: stash the committed mode; the gesture-end
		// event fires when the second finger lifts, so both fingers'
		// final locations contribute to the final scale/angle.
		r.endedMode = r.mode
		r.mode = twoFingerUndecided
		return
	}
	if r.endedMode != twoFingerUndecided {
		// Second finger of a two-finger gesture lifting now.
		mode := r.endedMode
		r.endedMode = twoFingerUndecided
		mid := r.midpoint()
		switch mode {
		case twoFingerPinch:
			scale := r.lastScale
			if r.startSpread > 0 {
				scale = r.spread() / r.startSpread
			}
			r.out = append(r.out, Event{Kind: PinchEnded, Loc: mid, Time: e.Time, Scale: scale})
		case twoFingerRotate:
			r.out = append(r.out, Event{Kind: RotateEnded, Loc: mid, Time: e.Time, Angle: normalizeAngle(r.angle() - r.startAngle)})
		}
		return
	}
	switch {
	case f.moved:
		r.out = append(r.out, Event{Kind: SlideEnded, Loc: e.Loc, Time: e.Time, Velocity: f.velocity})
	case e.Time-f.startTime <= r.cfg.TapMaxDuration && e.Loc.Dist(f.start) <= r.cfg.TapSlop:
		r.out = append(r.out, Event{Kind: Tap, Loc: e.Loc, Time: e.Time})
	default:
		// A long motionless press: treat as a degenerate slide (press-hold).
		r.out = append(r.out,
			Event{Kind: SlideBegan, Loc: f.start, Time: f.startTime},
			Event{Kind: SlideEnded, Loc: e.Loc, Time: e.Time},
		)
	}
}

func (r *Recognizer) twoFingerMove(e touchos.TouchEvent) {
	if !r.fingers[0].down || !r.fingers[1].down {
		return
	}
	// The moving finger's state still holds its previous location until
	// Feed updates it, but spread/angle use .last of the *other* finger
	// and the new location of this one; approximating with both .last
	// plus this event is fine at digitizer rates, so recompute after a
	// temporary update.
	saved := r.fingers[e.Finger].last
	r.fingers[e.Finger].last = e.Loc
	spread := r.spread()
	angle := r.angle()
	mid := r.midpoint()
	r.fingers[e.Finger].last = saved

	scale := 1.0
	if r.startSpread > 0 {
		scale = spread / r.startSpread
	}
	dAngle := normalizeAngle(angle - r.startAngle)

	if r.mode == twoFingerUndecided {
		switch {
		case math.Abs(math.Log2(scale)) >= r.cfg.PinchThreshold:
			r.mode = twoFingerPinch
		case math.Abs(dAngle) >= r.cfg.RotateThreshold:
			r.mode = twoFingerRotate
		default:
			return
		}
	}
	switch r.mode {
	case twoFingerPinch:
		r.lastScale = scale
		r.out = append(r.out, Event{Kind: PinchStep, Loc: mid, Time: e.Time, Scale: scale})
	case twoFingerRotate:
		r.lastAngle = dAngle
		r.out = append(r.out, Event{Kind: RotateStep, Loc: mid, Time: e.Time, Angle: dAngle})
	}
}

func (r *Recognizer) spread() float64 {
	return r.fingers[0].last.Dist(r.fingers[1].last)
}

func (r *Recognizer) angle() float64 {
	d := r.fingers[1].last.Sub(r.fingers[0].last)
	return math.Atan2(d.Y, d.X)
}

func (r *Recognizer) midpoint() touchos.Point {
	a, b := r.fingers[0].last, r.fingers[1].last
	return touchos.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
}

// normalizeAngle folds an angle into (-π, π].
func normalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
