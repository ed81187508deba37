package dbtouch

import (
	"fmt"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// Object is the handle to one on-screen data object. Its methods both
// configure the touch actions and synthesize the gestures of Figure 1.
type Object struct {
	db    *DB
	inner *core.Object
}

// ID returns the kernel object id.
func (o *Object) ID() int { return o.inner.ID() }

// Rows reports the tuple count of the backing data.
func (o *Object) Rows() int { return o.inner.Rows() }

// Frame reports the object's on-screen rectangle (centimeters).
func (o *Object) Frame() (x, y, w, h float64) {
	f := o.inner.View().Frame()
	return f.Origin.X, f.Origin.Y, f.Size.W, f.Size.H
}

// Inner exposes the kernel object (advanced use).
func (o *Object) Inner() *core.Object { return o.inner }

// SetActions replaces the full touch configuration.
func (o *Object) SetActions(a Actions) { o.inner.SetActions(a) }

// Actions returns the current touch configuration.
func (o *Object) Actions() Actions { return o.inner.Actions() }

// Scan configures touches to reveal raw values.
func (o *Object) Scan() *Object {
	a := o.inner.Actions()
	a.Mode = core.ModeScan
	o.inner.SetActions(a)
	return o
}

// Aggregate configures touches to maintain a running aggregate.
func (o *Object) Aggregate(kind AggKind) *Object {
	a := o.inner.Actions()
	a.Mode = core.ModeAggregate
	a.Agg = kind
	o.inner.SetActions(a)
	return o
}

// Summarize configures interactive summaries: each touch aggregates the
// 2k+1 entries around the touched tuple.
func (o *Object) Summarize(kind AggKind, k int) *Object {
	a := o.inner.Actions()
	a.Mode = core.ModeSummary
	a.Agg = kind
	a.SummaryK = k
	o.inner.SetActions(a)
	return o
}

// Where adds a WHERE conjunct on the named column of the object's
// backing table. op is one of = <> < <= > >=.
func (o *Object) Where(column, op string, operand any) error {
	m := o.inner.Matrix()
	idx := m.ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("dbtouch: no column %q", column)
	}
	cmp, err := parseOp(op)
	if err != nil {
		return err
	}
	a := o.inner.Actions()
	a.Filters = append(a.Filters, operator.Predicate{Col: idx, Op: cmp, Operand: toValue(operand)})
	o.inner.SetActions(a)
	return nil
}

// ValueOrder toggles index-backed value-order slides (slide position maps
// to rank, not storage position).
func (o *Object) ValueOrder(on bool) *Object {
	a := o.inner.Actions()
	a.ValueOrder = on
	o.inner.SetActions(a)
	return o
}

// GroupBy configures incremental grouping of valColumn by keyColumn.
func (o *Object) GroupBy(keyColumn, valColumn string, kind AggKind) error {
	m := o.inner.Matrix()
	k, v := m.ColumnIndex(keyColumn), m.ColumnIndex(valColumn)
	if k < 0 || v < 0 {
		return fmt.Errorf("dbtouch: group columns %q/%q not found", keyColumn, valColumn)
	}
	a := o.inner.Actions()
	a.Group = &core.GroupSpec{KeyCol: k, ValCol: v, Agg: kind}
	o.inner.SetActions(a)
	return nil
}

// JoinWith wires a symmetric (non-blocking) equi-join between this
// object's column and other's column; touches on either object stream
// matches out.
func (o *Object) JoinWith(other *Object) {
	a := o.inner.Actions()
	a.Join = &core.JoinSpec{OtherObject: other.ID(), Side: core.JoinLeft}
	o.inner.SetActions(a)
}

// Gesture builders. Each *Gesture method describes a gesture against
// this object as a serializable value without executing it: ship the
// value through a script, the wire protocol, or a queue, then execute it
// with DB.Perform (or Session.Perform on the session layer). The
// classic imperative methods below are thin wrappers — building the
// description and performing it immediately — and stay byte-identical
// to pre-protocol behavior.

// TapGesture describes a single touch at the given fractional height.
func (o *Object) TapGesture(frac float64) Gesture { return gesture.NewTap(o.ID(), frac) }

// SlideGesture describes a top-to-bottom sweep over dur.
func (o *Object) SlideGesture(dur time.Duration) Gesture {
	return gesture.NewSlide(o.ID(), 0, 1, dur)
}

// SlideUpGesture describes a bottom-to-top sweep over dur.
func (o *Object) SlideUpGesture(dur time.Duration) Gesture {
	return gesture.NewSlide(o.ID(), 1, 0, dur)
}

// SlideRangeGesture describes a sweep between two fractional heights
// (0 = top, 1 = bottom) over dur.
func (o *Object) SlideRangeGesture(fromFrac, toFrac float64, dur time.Duration) Gesture {
	return gesture.NewSlide(o.ID(), fromFrac, toFrac, dur)
}

// SlideWithPauseGesture describes a top-to-bottom sweep with a rest at
// pauseFrac for pauseDur.
func (o *Object) SlideWithPauseGesture(dur time.Duration, pauseFrac float64, pauseDur time.Duration) Gesture {
	return gesture.NewSlidePause(o.ID(), dur, pauseFrac, pauseDur)
}

// SlideBackAndForthGesture describes passes down-and-up round trips,
// legDur per leg.
func (o *Object) SlideBackAndForthGesture(legDur time.Duration, passes int) Gesture {
	return gesture.NewBackAndForth(o.ID(), legDur, passes)
}

// ZoomInGesture describes a pinch growing the object by factor (> 1).
func (o *Object) ZoomInGesture(factor float64) Gesture {
	return gesture.NewZoom(o.ID(), factor)
}

// ZoomOutGesture describes a pinch shrinking the object by factor (> 1).
func (o *Object) ZoomOutGesture(factor float64) Gesture {
	if factor > 0 {
		return gesture.NewZoom(o.ID(), 1/factor)
	}
	return gesture.NewZoom(o.ID(), 0) // invalid by construction, like the input
}

// RotateQuarterGesture describes a two-finger quarter-turn rotation.
func (o *Object) RotateQuarterGesture() Gesture { return gesture.NewRotateQuarter(o.ID()) }

// MoveToGesture describes repositioning the top-left corner to (x, y).
func (o *Object) MoveToGesture(x, y float64) Gesture { return gesture.NewMove(o.ID(), x, y) }

// perform executes a description, preserving the legacy imperative
// contract: an evicted session or an invalid parameter (zoom factor <= 0)
// degrades to a silent no-op exactly as the pre-protocol methods did.
func (o *Object) perform(g Gesture) []Result {
	results, _ := o.db.Perform(g)
	return results
}

// Slide sweeps a single finger top-to-bottom over the object in dur and
// returns the results the gesture produced.
func (o *Object) Slide(dur time.Duration) []Result {
	return o.perform(o.SlideGesture(dur))
}

// SlideUp sweeps bottom-to-top.
func (o *Object) SlideUp(dur time.Duration) []Result {
	return o.perform(o.SlideUpGesture(dur))
}

// SlideRange sweeps between two fractional heights of the object (0 =
// top, 1 = bottom) in dur.
func (o *Object) SlideRange(fromFrac, toFrac float64, dur time.Duration) []Result {
	return o.perform(o.SlideRangeGesture(fromFrac, toFrac, dur))
}

// SlideWithPause sweeps top-to-bottom pausing at pauseFrac for pauseDur —
// the prefetching scenario of §2.6.
func (o *Object) SlideWithPause(dur time.Duration, pauseFrac float64, pauseDur time.Duration) []Result {
	return o.perform(o.SlideWithPauseGesture(dur, pauseFrac, pauseDur))
}

// SlideBackAndForth sweeps down and back up `passes` times, legDur per
// leg — the revisit scenario caching exploits.
func (o *Object) SlideBackAndForth(legDur time.Duration, passes int) []Result {
	return o.perform(o.SlideBackAndForthGesture(legDur, passes))
}

// Tap touches the object at the given fractional height once.
func (o *Object) Tap(frac float64) []Result {
	return o.perform(o.TapGesture(frac))
}

// MoveTo repositions the object's top-left corner (the pan gesture of
// §2.8, applied directly).
func (o *Object) MoveTo(x, y float64) {
	o.perform(o.MoveToGesture(x, y))
}

// ZoomIn grows the object by factor (> 1) with a pinch gesture, raising
// the granularity a slide can address.
func (o *Object) ZoomIn(factor float64) {
	o.perform(o.ZoomInGesture(factor))
}

// ZoomOut shrinks the object by factor (> 1).
func (o *Object) ZoomOut(factor float64) {
	o.perform(o.ZoomOutGesture(factor))
}

// RotateQuarter applies a two-finger quarter-turn rotation: the view
// rotates, and multi-column objects start an incremental row↔column
// layout conversion with a sample-first preview.
func (o *Object) RotateQuarter() {
	o.perform(o.RotateQuarterGesture())
}

// Converting reports whether a layout conversion is running, with its
// progress in [0,1].
func (o *Object) Converting() (bool, float64) { return o.inner.Converting() }

// PinHotRegion materializes the most revisited region of this column as
// its own data object at (x, y, w, h) — cache-to-sample promotion
// (paper §2.6): future queries at this granularity feed from the copy.
// Requires the gesture-aware cache policy (the default).
func (o *Object) PinHotRegion(x, y, w, h float64) (*Object, error) {
	inner, err := o.db.kernel.PromoteHotRegion(o.inner, touchos.NewRect(x, y, w, h))
	if err != nil {
		return nil, err
	}
	return &Object{db: o.db, inner: inner}, nil
}

// parseOp maps SQL comparison syntax to operator.CmpOp (the canonical
// table is operator.ParseCmpOp, shared with the script language and the
// wire protocol).
func parseOp(op string) (operator.CmpOp, error) {
	return operator.ParseCmpOp(op)
}

// toValue coerces a Go value into a storage.Value.
func toValue(v any) storage.Value {
	switch x := v.(type) {
	case int:
		return storage.IntValue(int64(x))
	case int64:
		return storage.IntValue(x)
	case float64:
		return storage.FloatValue(x)
	case bool:
		return storage.BoolValue(x)
	case string:
		return storage.StringValue(x)
	default:
		return storage.StringValue(fmt.Sprint(v))
	}
}
