package gesture

import (
	"math"
	"testing"
	"time"

	"dbtouch/internal/touchos"
)

func feedAll(r *Recognizer, events []touchos.TouchEvent) []Event {
	var out []Event
	for _, e := range events {
		out = append(out, r.Feed(e)...)
	}
	return out
}

func kinds(events []Event) map[EventKind]int {
	m := map[EventKind]int{}
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}

func TestSynthSlideShape(t *testing.T) {
	s := Synth{}
	events := s.Slide(touchos.Point{X: 1, Y: 0}, touchos.Point{X: 1, Y: 10}, 0, time.Second)
	if events[0].Phase != touchos.TouchBegan {
		t.Fatal("stream must start with began")
	}
	if events[len(events)-1].Phase != touchos.TouchEnded {
		t.Fatal("stream must end with ended")
	}
	// ~60 samples at the default digitizer rate.
	moves := 0
	for i, e := range events {
		if e.Phase == touchos.TouchMoved {
			moves++
		}
		if i > 0 && e.Time < events[i-1].Time {
			t.Fatal("events out of time order")
		}
	}
	if moves < 55 || moves > 65 {
		t.Fatalf("moves = %d, want ≈60", moves)
	}
	// Path is a straight vertical line.
	for _, e := range events {
		if e.Loc.X != 1 {
			t.Fatalf("slide wandered to x=%v", e.Loc.X)
		}
		if e.Loc.Y < 0 || e.Loc.Y > 10.2 {
			t.Fatalf("slide out of range y=%v", e.Loc.Y)
		}
	}
}

func TestSynthPauseResumeHoldsPosition(t *testing.T) {
	s := Synth{}
	events := s.PauseResume(touchos.Point{X: 0, Y: 0}, touchos.Point{X: 0, Y: 10}, 0, 2*time.Second, 0.5, time.Second)
	// During [1s, 2s] the finger should sit at y=5.
	held := 0
	for _, e := range events {
		if e.Time > 1100*time.Millisecond && e.Time < 1900*time.Millisecond {
			if math.Abs(e.Loc.Y-5) > 0.01 {
				t.Fatalf("pause wandered to %v at %v", e.Loc.Y, e.Time)
			}
			held++
		}
	}
	if held < 40 {
		t.Fatalf("pause samples = %d, want ≈48", held)
	}
}

func TestSynthBackAndForthReverses(t *testing.T) {
	s := Synth{}
	events := s.BackAndForth(touchos.Point{X: 0, Y: 0}, touchos.Point{X: 0, Y: 10}, 0, time.Second, 1)
	maxY := 0.0
	for _, e := range events {
		if e.Loc.Y > maxY {
			maxY = e.Loc.Y
		}
	}
	last := events[len(events)-1]
	if maxY < 9.9 {
		t.Fatalf("never reached far end: max=%v", maxY)
	}
	if last.Loc.Y > 0.5 {
		t.Fatalf("did not return: final y=%v", last.Loc.Y)
	}
}

func TestMergeOrdersStreams(t *testing.T) {
	s := Synth{}
	a := s.Slide(touchos.Point{X: 0, Y: 0}, touchos.Point{X: 0, Y: 1}, 0, 500*time.Millisecond)
	b := s.Tap(touchos.Point{X: 5, Y: 5}, 200*time.Millisecond)
	merged := Merge(a, b)
	for i := 1; i < len(merged); i++ {
		if merged[i].Time < merged[i-1].Time {
			t.Fatal("merged stream out of order")
		}
	}
	if len(merged) != len(a)+len(b) {
		t.Fatal("merge lost events")
	}
}

func TestRecognizeTap(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	s := Synth{}
	events := feedAll(r, s.Tap(touchos.Point{X: 3, Y: 3}, 0))
	k := kinds(events)
	if k[Tap] != 1 {
		t.Fatalf("kinds = %v, want one tap", k)
	}
}

func TestRecognizeSlide(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	s := Synth{}
	events := feedAll(r, s.Slide(touchos.Point{X: 1, Y: 0}, touchos.Point{X: 1, Y: 10}, 0, time.Second))
	k := kinds(events)
	if k[SlideBegan] != 1 || k[SlideEnded] != 1 {
		t.Fatalf("kinds = %v, want one slide began/ended", k)
	}
	if k[SlideStep] < 50 {
		t.Fatalf("slide steps = %d, want ≈60", k[SlideStep])
	}
	if k[Tap] != 0 {
		t.Fatal("slide misrecognized as tap")
	}
	// Velocity should be ≈10 cm/s downward.
	var lastV touchos.Point
	for _, e := range events {
		if e.Kind == SlideStep {
			lastV = e.Velocity
		}
	}
	if math.Abs(lastV.Y-10) > 3 {
		t.Fatalf("slide velocity = %v, want ≈10 cm/s", lastV.Y)
	}
}

func TestRecognizePinchZoomIn(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	s := Synth{}
	events := feedAll(r, s.Pinch(touchos.Point{X: 5, Y: 5}, 2, 4, 0, 500*time.Millisecond))
	k := kinds(events)
	if k[PinchEnded] != 1 {
		t.Fatalf("kinds = %v, want one pinch-ended", k)
	}
	for _, e := range events {
		if e.Kind == PinchEnded && math.Abs(e.Scale-2) > 0.05 {
			t.Fatalf("pinch scale = %v, want 2", e.Scale)
		}
	}
}

func TestRecognizePinchZoomOut(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	s := Synth{}
	events := feedAll(r, s.Pinch(touchos.Point{X: 5, Y: 5}, 4, 2, 0, 500*time.Millisecond))
	for _, e := range events {
		if e.Kind == PinchEnded && math.Abs(e.Scale-0.5) > 0.02 {
			t.Fatalf("pinch scale = %v, want 0.5", e.Scale)
		}
	}
}

func TestRecognizeRotation(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	s := Synth{}
	events := feedAll(r, s.Rotate(touchos.Point{X: 5, Y: 5}, 2, math.Pi/2, 0, 500*time.Millisecond))
	k := kinds(events)
	if k[RotateEnded] != 1 {
		t.Fatalf("kinds = %v, want one rotate-ended", k)
	}
	for _, e := range events {
		if e.Kind == RotateEnded && math.Abs(e.Angle-math.Pi/2) > 0.1 {
			t.Fatalf("rotation angle = %v, want π/2", e.Angle)
		}
	}
}

func TestRecognizeCancelled(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	events := feedAll(r, []touchos.TouchEvent{
		{Phase: touchos.TouchBegan, Loc: touchos.Point{X: 1, Y: 1}, Time: 0},
		{Phase: touchos.TouchCancelled, Loc: touchos.Point{X: 1, Y: 1}, Time: time.Millisecond},
	})
	if kinds(events)[Cancelled] != 1 {
		t.Fatalf("kinds = %v", kinds(events))
	}
}

func TestLongPressIsNotTap(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	events := feedAll(r, []touchos.TouchEvent{
		{Phase: touchos.TouchBegan, Loc: touchos.Point{X: 1, Y: 1}, Time: 0},
		{Phase: touchos.TouchEnded, Loc: touchos.Point{X: 1, Y: 1}, Time: time.Second},
	})
	if kinds(events)[Tap] != 0 {
		t.Fatal("1s press should not be a tap")
	}
}

func TestThirdFingerIgnored(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	out := r.Feed(touchos.TouchEvent{Finger: 2, Phase: touchos.TouchBegan})
	if out != nil {
		t.Fatal("finger >1 should be ignored")
	}
}

func TestRecognizerSequentialGestures(t *testing.T) {
	r := NewRecognizer(DefaultConfig())
	s := Synth{}
	slide := s.Slide(touchos.Point{X: 1, Y: 0}, touchos.Point{X: 1, Y: 5}, 0, 500*time.Millisecond)
	tap := s.Tap(touchos.Point{X: 1, Y: 1}, time.Second)
	all := feedAll(r, append(slide, tap...))
	k := kinds(all)
	if k[SlideEnded] != 1 || k[Tap] != 1 {
		t.Fatalf("kinds = %v: recognizer state leaked between gestures", k)
	}
}
