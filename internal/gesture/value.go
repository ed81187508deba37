package gesture

import (
	"fmt"
	"time"

	"dbtouch/internal/touchos"
)

// Kind identifies a serializable gesture description. Kinds are stable
// wire strings: they appear verbatim in the versioned protocol encoding.
type Kind string

// Gesture kinds.
const (
	// KindTap touches the object once at fractional height Frac.
	KindTap Kind = "tap"
	// KindSlide sweeps one finger between fractional heights From and To
	// over Dur.
	KindSlide Kind = "slide"
	// KindSlidePause sweeps top-to-bottom over Dur of moving time,
	// resting at PauseAt of the way for PauseDur.
	KindSlidePause Kind = "slide-pause"
	// KindBackAndForth sweeps down and back up Passes times, Dur per leg.
	KindBackAndForth Kind = "back-and-forth"
	// KindZoom pinches the object by scale Factor (> 1 grows, < 1 shrinks).
	KindZoom Kind = "zoom"
	// KindRotate applies a two-finger quarter-turn rotation.
	KindRotate Kind = "rotate"
	// KindMove repositions the object's top-left corner to (X, Y).
	KindMove Kind = "move"
)

// Gesture is a serializable description of one gesture against a data
// object: what a finger intends to do, not the digitizer samples doing
// it. Descriptions travel — over the wire to a server holding the full
// data, into a script file, across a reconnect — and are synthesized
// into touch-event streams only at the kernel that executes them
// (Synthesize). Unused parameter fields are zero and omitted from JSON;
// durations encode as int64 nanoseconds.
type Gesture struct {
	Kind Kind `json:"kind"`
	// Target is the kernel object id the gesture addresses. Wire
	// protocols address objects by name and stamp the id at the
	// executing session (the id space is per session).
	Target int `json:"target,omitempty"`
	// Dur is the gesture's moving time (per leg for KindBackAndForth).
	Dur time.Duration `json:"dur,omitempty"`
	// From and To are fractional heights of a slide (0 = top, 1 = bottom).
	From float64 `json:"from,omitempty"`
	To   float64 `json:"to,omitempty"`
	// Frac is the fractional height of a tap.
	Frac float64 `json:"frac,omitempty"`
	// Factor is the pinch scale of a zoom.
	Factor float64 `json:"factor,omitempty"`
	// PauseAt and PauseDur parameterize KindSlidePause.
	PauseAt  float64       `json:"pauseAt,omitempty"`
	PauseDur time.Duration `json:"pauseDur,omitempty"`
	// Passes counts KindBackAndForth round trips.
	Passes int `json:"passes,omitempty"`
	// X and Y are the KindMove destination (centimeters).
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
}

// NewTap describes a tap on target at fractional height frac.
func NewTap(target int, frac float64) Gesture {
	return Gesture{Kind: KindTap, Target: target, Frac: frac}
}

// NewSlide describes a slide on target between fractional heights from
// and to over dur.
func NewSlide(target int, from, to float64, dur time.Duration) Gesture {
	return Gesture{Kind: KindSlide, Target: target, From: from, To: to, Dur: dur}
}

// NewSlidePause describes a top-to-bottom slide with a mid-gesture rest.
func NewSlidePause(target int, dur time.Duration, pauseAt float64, pauseDur time.Duration) Gesture {
	return Gesture{Kind: KindSlidePause, Target: target, Dur: dur, PauseAt: pauseAt, PauseDur: pauseDur}
}

// NewBackAndForth describes passes down-and-up round trips, legDur per leg.
func NewBackAndForth(target int, legDur time.Duration, passes int) Gesture {
	return Gesture{Kind: KindBackAndForth, Target: target, Dur: legDur, Passes: passes}
}

// NewZoom describes a pinch by scale factor (> 1 zooms in, < 1 out).
func NewZoom(target int, factor float64) Gesture {
	return Gesture{Kind: KindZoom, Target: target, Factor: factor}
}

// NewRotateQuarter describes a two-finger quarter-turn rotation.
func NewRotateQuarter(target int) Gesture {
	return Gesture{Kind: KindRotate, Target: target}
}

// NewMove describes repositioning the object's top-left corner to (x, y).
func NewMove(target int, x, y float64) Gesture {
	return Gesture{Kind: KindMove, Target: target, X: x, Y: y}
}

// Bounds on one description. Descriptions cross a trust boundary (the
// wire protocol performs them for unauthenticated clients) and synthesis
// allocates one event per digitizer period, so the total touch time a
// single description may demand is capped: an hour of gesturing is
// ~430k events — generous for any exploration, harmless to synthesize.
const (
	// MaxGestureDur caps a description's total touch time (all legs of a
	// back-and-forth plus any pause).
	MaxGestureDur = time.Hour
	// MaxPasses caps back-and-forth round trips.
	MaxPasses = 1000
)

// Validate checks that the description is executable: known kind, and
// parameters inside the domain the synthesizer accepts. A zoom with a
// non-positive factor is invalid (the legacy facade treated it as a
// silent no-op; as a first-class value it is a caller error).
func (g Gesture) Validate() error {
	switch g.Kind {
	case KindTap, KindSlide, KindSlidePause, KindBackAndForth, KindRotate, KindMove:
	case KindZoom:
		if g.Factor <= 0 {
			return fmt.Errorf("gesture: zoom factor %v must be positive", g.Factor)
		}
	default:
		return fmt.Errorf("gesture: unknown kind %q", g.Kind)
	}
	if g.Dur < 0 || g.PauseDur < 0 {
		return fmt.Errorf("gesture: negative duration")
	}
	if g.Dur > MaxGestureDur || g.PauseDur > MaxGestureDur {
		return fmt.Errorf("gesture: duration exceeds %v", MaxGestureDur)
	}
	if g.Kind == KindSlidePause && (g.PauseAt < 0 || g.PauseAt > 1) {
		// PauseAt scales the synthesized touch time (the pause sits at
		// PauseAt of the way through Dur), so out-of-range values would
		// defeat the duration cap above.
		return fmt.Errorf("gesture: pause position %v outside [0, 1]", g.PauseAt)
	}
	if g.Kind == KindBackAndForth {
		if g.Passes > MaxPasses {
			return fmt.Errorf("gesture: %d passes exceeds %d", g.Passes, MaxPasses)
		}
		legs := 2 * time.Duration(maxInt(g.Passes, 1))
		if g.Dur > MaxGestureDur/legs {
			return fmt.Errorf("gesture: total touch time %v exceeds %v", g.Dur*legs, MaxGestureDur)
		}
	}
	if g.Dur+g.PauseDur > MaxGestureDur {
		return fmt.Errorf("gesture: total touch time exceeds %v", MaxGestureDur)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Synthesize materializes the description into a digitizer-rate touch
// stream against an object occupying frame, beginning at start. The
// trajectory math here is the single source of truth for how high-level
// gestures become touch samples: the facade, the session layer, and the
// wire protocol all execute through it, so a description produces the
// same stream wherever it is replayed. KindMove synthesizes no events —
// it is applied directly by the executing kernel.
func (g Gesture) Synthesize(s Synth, frame touchos.Rect, start time.Duration) ([]touchos.TouchEvent, error) {
	return g.AppendEvents(nil, s, frame, start)
}

// AppendEvents is Synthesize appending to dst, which grows at most once:
// a caller that keeps the returned slice and passes it back as dst[:0]
// synthesizes without allocating. An invalid description returns dst
// unchanged with the error.
func (g Gesture) AppendEvents(dst []touchos.TouchEvent, s Synth, frame touchos.Rect, start time.Duration) ([]touchos.TouchEvent, error) {
	if err := g.Validate(); err != nil {
		return dst, err
	}
	const inset = 0.02 // finger margin inside the frame, centimeters
	centerX := frame.Origin.X + frame.Size.W/2
	yAt := func(frac float64) float64 {
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return frame.Origin.Y + inset + frac*(frame.Size.H-2*inset)
	}
	top := touchos.Point{X: centerX, Y: frame.Origin.Y + inset}
	bottom := touchos.Point{X: centerX, Y: frame.Origin.Y + frame.Size.H - inset}
	switch g.Kind {
	case KindTap:
		return s.appendTap(dst, touchos.Point{
			X: centerX,
			Y: frame.Origin.Y + inset + g.Frac*(frame.Size.H-2*inset),
		}, start), nil
	case KindSlide:
		return s.appendSlide(dst,
			touchos.Point{X: centerX, Y: yAt(g.From)},
			touchos.Point{X: centerX, Y: yAt(g.To)},
			start, g.Dur,
		), nil
	case KindSlidePause:
		return s.appendPauseResume(dst, top, bottom, start, g.Dur, g.PauseAt, g.PauseDur), nil
	case KindBackAndForth:
		return s.appendBackAndForth(dst, top, bottom, start, g.Dur, g.Passes), nil
	case KindZoom:
		center := frame.Center()
		spread := frame.Size.H / 3
		return s.appendPinch(dst, center, spread, spread*g.Factor, start, 300*time.Millisecond), nil
	case KindRotate:
		radius := frame.Size.W / 2
		if frame.Size.H < frame.Size.W {
			radius = frame.Size.H / 2
		}
		if radius <= 0.2 {
			radius = 0.2
		}
		return s.appendRotate(dst, frame.Center(), radius*0.9, 1.65, start, 400*time.Millisecond), nil
	case KindMove:
		return dst, nil
	default:
		return dst, fmt.Errorf("gesture: unknown kind %q", g.Kind)
	}
}
