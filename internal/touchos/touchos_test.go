package touchos

import (
	"testing"
	"time"

	"dbtouch/internal/vclock"
)

func TestRectContains(t *testing.T) {
	r := NewRect(1, 1, 2, 3)
	if !r.Contains(Point{1, 1}) {
		t.Fatal("top-left corner should be inside")
	}
	if r.Contains(Point{3, 4}) {
		t.Fatal("bottom-right corner should be outside (exclusive)")
	}
	if !r.Contains(Point{2, 2.5}) {
		t.Fatal("interior point should be inside")
	}
}

func TestRectScaledAbout(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	s := r.ScaledAbout(2)
	if s.Size.W != 8 || s.Size.H != 4 {
		t.Fatalf("scaled size = %v", s.Size)
	}
	if s.Center() != r.Center() {
		t.Fatalf("center moved: %v vs %v", s.Center(), r.Center())
	}
}

func TestViewHierarchy(t *testing.T) {
	screen := NewScreen(10, 10)
	a := NewView("a", NewRect(1, 1, 4, 4))
	b := NewView("b", NewRect(6, 1, 3, 3))
	if err := screen.AddChild(a); err != nil {
		t.Fatal(err)
	}
	if err := screen.AddChild(b); err != nil {
		t.Fatal(err)
	}
	if got := screen.HitTest(Point{2, 2}); got != a {
		t.Fatalf("HitTest(2,2) = %v", got)
	}
	if got := screen.HitTest(Point{7, 2}); got != b {
		t.Fatalf("HitTest(7,2) = %v", got)
	}
	if got := screen.HitTest(Point{5.5, 9}); got != screen {
		t.Fatalf("HitTest on empty area = %v, want screen", got)
	}
	if got := screen.HitTest(Point{-1, -1}); got != nil {
		t.Fatal("HitTest outside screen should be nil")
	}
}

func TestHitTestStackingOrder(t *testing.T) {
	screen := NewScreen(10, 10)
	bottom := NewView("bottom", NewRect(1, 1, 5, 5))
	top := NewView("top", NewRect(2, 2, 5, 5))
	_ = screen.AddChild(bottom)
	_ = screen.AddChild(top) // added later: on top
	if got := screen.HitTest(Point{3, 3}); got != top {
		t.Fatalf("overlap HitTest = %q, want top", got.Name())
	}
	if got := screen.HitTest(Point{1.5, 1.5}); got != bottom {
		t.Fatalf("non-overlap HitTest = %q, want bottom", got.Name())
	}
	// Re-adding a view raises it; removing one keeps the others' order.
	mid := NewView("mid", NewRect(2, 2, 5, 5))
	_ = screen.AddChild(mid)
	_ = screen.AddChild(bottom)
	if got := screen.HitTest(Point{3, 3}); got != bottom {
		t.Fatalf("re-added view HitTest = %q, want bottom", got.Name())
	}
	screen.RemoveChild(bottom)
	if got := screen.HitTest(Point{3, 3}); got != mid {
		t.Fatalf("after removal HitTest = %q, want mid", got.Name())
	}
	if kids := screen.Children(); len(kids) != 2 || kids[0] != top || kids[1] != mid {
		t.Fatalf("Children() = %v, want [top mid]", kids)
	}
}

func TestAddChildCycleRejected(t *testing.T) {
	a := NewView("a", NewRect(0, 0, 5, 5))
	b := NewView("b", NewRect(0, 0, 2, 2))
	if err := a.AddChild(b); err != nil {
		t.Fatal(err)
	}
	if err := b.AddChild(a); err == nil {
		t.Fatal("cycle should be rejected")
	}
	if err := a.AddChild(a); err == nil {
		t.Fatal("self-child should be rejected")
	}
}

func TestRemoveChild(t *testing.T) {
	a := NewView("a", NewRect(0, 0, 5, 5))
	b := NewView("b", NewRect(0, 0, 2, 2))
	_ = a.AddChild(b)
	a.RemoveChild(b)
	if b.Parent() != nil || len(a.Children()) != 0 {
		t.Fatal("RemoveChild did not detach")
	}
}

func TestToLocalRotations(t *testing.T) {
	v := NewView("v", NewRect(0, 0, 2, 4)) // 2 wide, 4 tall
	p := Point{0.5, 1}                     // in parent coords

	v.Rotate(0)
	if got := v.ToLocal(p); got != (Point{0.5, 1}) {
		t.Fatalf("rot0 local = %v", got)
	}

	// After one quarter turn the local height axis runs along parent X.
	v2 := NewView("v2", NewRect(0, 0, 2, 4))
	v2.Rotate(1)
	got := v2.ToLocal(Point{0.5, 1})
	if got.X != 1 || got.Y != 1.5 {
		t.Fatalf("rot1 local = %v, want (1, 1.5)", got)
	}
	if size := v2.LocalSize(); size.W != 4 || size.H != 2 {
		t.Fatalf("rot1 LocalSize = %v", size)
	}

	v3 := NewView("v3", NewRect(0, 0, 2, 4))
	v3.Rotate(2)
	got = v3.ToLocal(Point{0.5, 1})
	if got.X != 1.5 || got.Y != 3 {
		t.Fatalf("rot2 local = %v, want (1.5, 3)", got)
	}
}

func TestRotationNormalization(t *testing.T) {
	v := NewView("v", NewRect(0, 0, 1, 1))
	v.Rotate(5) // == 1
	if v.Rotation() != 1 {
		t.Fatalf("rotation = %d, want 1", v.Rotation())
	}
	v.Rotate(-2) // 1-2 = -1 == 3
	if v.Rotation() != 3 {
		t.Fatalf("rotation = %d, want 3", v.Rotation())
	}
	if !QuarterTurns(1).Horizontal() || QuarterTurns(2).Horizontal() {
		t.Fatal("Horizontal() wrong")
	}
}

func TestFromScreenNested(t *testing.T) {
	screen := NewScreen(20, 20)
	panel := NewView("panel", NewRect(5, 5, 10, 10))
	inner := NewView("inner", NewRect(2, 2, 4, 4))
	_ = screen.AddChild(panel)
	_ = panel.AddChild(inner)
	// Screen point (8, 9) = panel-local (3,4) = inner frame origin (2,2)
	// → inner local (1, 2).
	got := inner.FromScreen(Point{8, 9})
	if got.X != 1 || got.Y != 2 {
		t.Fatalf("FromScreen = %v, want (1,2)", got)
	}
}

// --- dispatcher tests ---

func constantHandler(busy time.Duration) (Handler, *[]TouchEvent) {
	var delivered []TouchEvent
	return func(e TouchEvent) time.Duration {
		delivered = append(delivered, e)
		return busy
	}, &delivered
}

func moveStream(n int, period time.Duration) []TouchEvent {
	events := []TouchEvent{{Phase: TouchBegan, Time: 0}}
	for i := 1; i <= n; i++ {
		events = append(events, TouchEvent{
			Phase: TouchMoved,
			Loc:   Point{0, float64(i)},
			Time:  time.Duration(i) * period,
		})
	}
	events = append(events, TouchEvent{Phase: TouchEnded, Time: time.Duration(n+1) * period})
	return events
}

func TestDispatcherDeliversAllWhenIdle(t *testing.T) {
	clock := vclock.New()
	d := NewDispatcher(clock)
	handler, delivered := constantHandler(time.Millisecond) // faster than 16ms arrivals
	stats := d.Dispatch(moveStream(10, 16*time.Millisecond), handler, nil)
	if stats.Delivered != 12 { // began + 10 moves + ended
		t.Fatalf("delivered = %d, want 12", stats.Delivered)
	}
	if stats.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0", stats.Coalesced)
	}
	if len(*delivered) != 12 {
		t.Fatalf("handler saw %d", len(*delivered))
	}
}

func TestDispatcherCoalescesWhenBusy(t *testing.T) {
	clock := vclock.New()
	d := NewDispatcher(clock)
	handler, _ := constantHandler(64 * time.Millisecond) // 4x slower than arrivals
	stats := d.Dispatch(moveStream(40, 16*time.Millisecond), handler, nil)
	if stats.Coalesced == 0 {
		t.Fatal("busy kernel should coalesce moves")
	}
	if stats.Delivered+stats.Coalesced != 42 {
		t.Fatalf("delivered %d + coalesced %d != 42 events", stats.Delivered, stats.Coalesced)
	}
	// Slower kernel ⇒ fewer deliveries: this is the Figure 4 mechanism.
	if stats.Delivered >= 40 {
		t.Fatalf("delivered = %d, expected far fewer than arrivals", stats.Delivered)
	}
}

func TestSlowerGestureDeliversMore(t *testing.T) {
	count := func(gestureDur time.Duration) int {
		clock := vclock.New()
		d := NewDispatcher(clock)
		handler, _ := constantHandler(60 * time.Millisecond)
		n := int(gestureDur / (16 * time.Millisecond))
		stats := d.Dispatch(moveStream(n, 16*time.Millisecond), handler, nil)
		return stats.Delivered
	}
	fast := count(500 * time.Millisecond)
	slow := count(4 * time.Second)
	if slow <= fast*4 {
		t.Fatalf("4s gesture delivered %d, 0.5s delivered %d; want ~8x", slow, fast)
	}
}

func TestDispatcherDeliversEndedWithFinalLocation(t *testing.T) {
	clock := vclock.New()
	d := NewDispatcher(clock)
	var last TouchEvent
	handler := func(e TouchEvent) time.Duration {
		last = e
		return 100 * time.Millisecond // very busy: everything coalesces
	}
	d.Dispatch(moveStream(10, 10*time.Millisecond), handler, nil)
	if last.Phase != TouchEnded {
		t.Fatalf("last delivered = %v, want ended", last.Phase)
	}
}

func TestDispatcherOrdersMovesBeforeLaterBarriers(t *testing.T) {
	clock := vclock.New()
	d := NewDispatcher(clock)
	var phases []TouchPhase
	handler := func(e TouchEvent) time.Duration {
		phases = append(phases, e.Phase)
		return 30 * time.Millisecond
	}
	events := []TouchEvent{
		{Phase: TouchBegan, Time: 0},
		{Phase: TouchMoved, Time: 5 * time.Millisecond},
		{Phase: TouchMoved, Time: 10 * time.Millisecond},
		{Phase: TouchEnded, Time: 40 * time.Millisecond},
	}
	d.Dispatch(events, handler, nil)
	want := []TouchPhase{TouchBegan, TouchMoved, TouchEnded}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i, p := range want {
		if phases[i] != p {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

func TestDispatcherIdleCallback(t *testing.T) {
	clock := vclock.New()
	d := NewDispatcher(clock)
	var gaps []time.Duration
	idle := func(from, to time.Duration) { gaps = append(gaps, to-from) }
	handler, _ := constantHandler(time.Millisecond)
	events := []TouchEvent{
		{Phase: TouchBegan, Time: 0},
		{Phase: TouchMoved, Time: 100 * time.Millisecond}, // long gap
		{Phase: TouchEnded, Time: 110 * time.Millisecond},
	}
	d.Dispatch(events, handler, idle)
	if len(gaps) == 0 {
		t.Fatal("idle callback never invoked")
	}
	foundLong := false
	for _, g := range gaps {
		if g >= 90*time.Millisecond {
			foundLong = true
		}
	}
	if !foundLong {
		t.Fatalf("no long idle gap reported: %v", gaps)
	}
}

func TestDispatcherMultiFingerCoalescing(t *testing.T) {
	clock := vclock.New()
	d := NewDispatcher(clock)
	var fingers []int
	handler := func(e TouchEvent) time.Duration {
		if e.Phase == TouchMoved {
			fingers = append(fingers, e.Finger)
		}
		return 50 * time.Millisecond
	}
	var events []TouchEvent
	events = append(events,
		TouchEvent{Finger: 0, Phase: TouchBegan, Time: 0},
		TouchEvent{Finger: 1, Phase: TouchBegan, Time: 0},
	)
	for i := 1; i <= 20; i++ {
		tm := time.Duration(i) * 16 * time.Millisecond
		events = append(events,
			TouchEvent{Finger: 0, Phase: TouchMoved, Time: tm},
			TouchEvent{Finger: 1, Phase: TouchMoved, Time: tm},
		)
	}
	events = append(events,
		TouchEvent{Finger: 0, Phase: TouchEnded, Time: 400 * time.Millisecond},
		TouchEvent{Finger: 1, Phase: TouchEnded, Time: 400 * time.Millisecond},
	)
	d.Dispatch(events, handler, nil)
	// Both fingers must get move deliveries (per-finger coalescing, not
	// global last-write-wins).
	saw0, saw1 := false, false
	for _, f := range fingers {
		if f == 0 {
			saw0 = true
		}
		if f == 1 {
			saw1 = true
		}
	}
	if !saw0 || !saw1 {
		t.Fatalf("fingers delivered = %v; both fingers should appear", fingers)
	}
}
