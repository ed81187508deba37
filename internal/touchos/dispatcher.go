package touchos

import (
	"time"

	"dbtouch/internal/vclock"
)

// Handler processes one delivered touch event and returns how long the
// kernel stays busy handling it (virtual time). Any clock time the handler
// charges through data-access trackers is included by the kernel in the
// returned duration.
type Handler func(TouchEvent) time.Duration

// DispatchStats counts dispatcher activity.
type DispatchStats struct {
	// Delivered is the number of events handed to the kernel.
	Delivered int
	// Coalesced is the number of move samples dropped because a newer
	// sample for the same finger superseded them while the kernel was
	// busy.
	Coalesced int
}

// Dispatcher simulates the touch OS event queue. The digitizer produces
// raw samples at a fixed rate; the run loop delivers an event only when
// the application is idle, and while it is busy newer move samples for a
// finger replace older undelivered ones. This coalescing is the physical
// mechanism behind the paper's Figure 4: a slower gesture leaves the
// kernel idle more often, so more distinct touch locations get delivered
// and more tuples are processed.
type Dispatcher struct {
	clock     *vclock.Clock
	busyUntil time.Duration
	stats     DispatchStats

	barriers  []TouchEvent       // began/ended/cancelled, FIFO
	moves     map[int]TouchEvent // finger → latest undelivered move
	moveOrder []int              // fingers in arrival order
}

// NewDispatcher returns a dispatcher bound to the virtual clock.
func NewDispatcher(clock *vclock.Clock) *Dispatcher {
	return &Dispatcher{clock: clock, moves: make(map[int]TouchEvent)}
}

// Dispatch feeds a time-ordered batch of raw touch events through the
// queue, invoking handler for each delivered event, and returns the stats
// snapshot after the batch. It may be called repeatedly; kernel busy state
// carries over between calls.
//
// idle is invoked (if non-nil) with each idle gap [from, to) between
// deliveries, giving prefetchers background time (paper §2.6 "Prefetching
// Data": fetch expected entries while the gesture pauses or slows down).
func (d *Dispatcher) Dispatch(events []TouchEvent, handler Handler, idle func(from, to time.Duration)) DispatchStats {
	i := 0
	for i < len(events) || d.havePending() {
		// Target time for the next delivery opportunity.
		var t time.Duration
		if d.havePending() {
			t = d.busyUntil
		} else {
			t = events[i].Time
			if d.busyUntil > t {
				t = d.busyUntil
			}
		}
		// Absorb every arrival up to t into the queue.
		absorbed := false
		for i < len(events) && events[i].Time <= t {
			d.absorb(events[i])
			i++
			absorbed = true
		}
		if !d.havePending() {
			if !absorbed {
				// Arrivals exist but are all after t; jump forward.
				t = events[i].Time
				continue
			}
			continue
		}
		e, ok := d.pop()
		if !ok {
			continue
		}
		at := e.Time
		if d.busyUntil > at {
			at = d.busyUntil
		}
		if idle != nil && at > d.busyUntil {
			// The kernel sat idle from busyUntil to the event arrival.
			idle(d.busyUntil, at)
		}
		d.clock.AdvanceTo(at)
		busy := handler(e)
		if busy < 0 {
			busy = 0
		}
		d.busyUntil = at + busy
		d.clock.AdvanceTo(d.busyUntil)
		d.stats.Delivered++
	}
	return d.stats
}

// havePending reports whether any event awaits delivery.
func (d *Dispatcher) havePending() bool {
	return len(d.barriers) > 0 || len(d.moveOrder) > 0
}

// absorb enqueues a raw sample, coalescing moves per finger. The queue
// holds copies: nothing refers into the caller's event slice once
// Dispatch returns, so callers may reuse it for the next batch.
func (d *Dispatcher) absorb(e TouchEvent) {
	switch e.Phase {
	case TouchMoved:
		if _, ok := d.moves[e.Finger]; ok {
			d.stats.Coalesced++
		} else {
			d.moveOrder = append(d.moveOrder, e.Finger)
		}
		d.moves[e.Finger] = e
	case TouchEnded, TouchCancelled:
		// The end event carries the final location; any undelivered move
		// for the finger is superseded.
		if _, ok := d.moves[e.Finger]; ok {
			d.stats.Coalesced++
			delete(d.moves, e.Finger)
			d.removeMoveOrder(e.Finger)
		}
		d.barriers = append(d.barriers, e)
	default:
		d.barriers = append(d.barriers, e)
	}
}

// pop dequeues the next event in timestamp order, so a pending move
// sampled before a lifecycle barrier is delivered first (an Ended event
// must not overtake the final coalesced move of its own gesture).
func (d *Dispatcher) pop() (TouchEvent, bool) {
	var bestMove TouchEvent
	bestMoveIdx := -1
	for i, f := range d.moveOrder {
		e := d.moves[f]
		if bestMoveIdx == -1 || e.Time < bestMove.Time {
			bestMove, bestMoveIdx = e, i
		}
	}
	if len(d.barriers) > 0 {
		b := d.barriers[0]
		if bestMoveIdx == -1 || b.Time <= bestMove.Time {
			// Shift rather than reslice, so the queue keeps its array.
			d.barriers = d.barriers[:copy(d.barriers, d.barriers[1:])]
			return b, true
		}
	}
	if bestMoveIdx >= 0 {
		d.moveOrder = append(d.moveOrder[:bestMoveIdx], d.moveOrder[bestMoveIdx+1:]...)
		delete(d.moves, bestMove.Finger)
		return bestMove, true
	}
	return TouchEvent{}, false
}

func (d *Dispatcher) removeMoveOrder(finger int) {
	for i, f := range d.moveOrder {
		if f == finger {
			d.moveOrder = append(d.moveOrder[:i], d.moveOrder[i+1:]...)
			return
		}
	}
}
