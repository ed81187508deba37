// Package prefetch implements gesture extrapolation and data prefetching
// (paper §2.6 "Prefetching Data"): "dbTouch can extrapolate the gesture
// progression (speed and direction) and fetch the expected entries such
// that they are readily available if the gesture resumes."
//
// The Extrapolator tracks tuple-id velocity with exponential smoothing;
// the Prefetcher spends kernel idle time (gaps between delivered touches,
// reported by the dispatcher) warming the blocks the gesture is predicted
// to reach next.
package prefetch

import (
	"time"

	"dbtouch/internal/iomodel"
)

// Extrapolator estimates where a slide gesture is heading in tuple-id
// space.
type Extrapolator struct {
	// Alpha is the EMA smoothing factor in (0, 1]; zero selects 0.4.
	Alpha float64

	lastID     int
	lastTime   time.Duration
	velocity   float64 // tuples per second, signed
	interTouch time.Duration
	observed   int
}

// Observe records that the gesture touched tuple id at virtual time t.
func (e *Extrapolator) Observe(id int, t time.Duration) {
	alpha := e.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.4
	}
	if e.observed > 0 {
		dt := t - e.lastTime
		if dt > 0 {
			inst := float64(id-e.lastID) / dt.Seconds()
			e.velocity = alpha*inst + (1-alpha)*e.velocity
			e.interTouch = time.Duration(alpha*float64(dt) + (1-alpha)*float64(e.interTouch))
		}
	}
	e.lastID = id
	e.lastTime = t
	e.observed++
}

// Direction reports the current movement direction: -1, 0, or +1.
func (e *Extrapolator) Direction() int {
	switch {
	case e.velocity > 1:
		return 1
	case e.velocity < -1:
		return -1
	default:
		return 0
	}
}

// Predict extrapolates the tuple range the gesture will cover during the
// next horizon, starting from the last observed id. The range is ordered
// (from <= to); a zero-velocity gesture predicts a small symmetric
// neighborhood (the user paused and may go either way).
func (e *Extrapolator) Predict(horizon time.Duration) (from, to int) {
	if e.observed == 0 {
		return 0, 0
	}
	delta := int(e.velocity * horizon.Seconds())
	if delta == 0 {
		// Paused: prepare both directions a little.
		return e.lastID - 64, e.lastID + 64
	}
	if delta > 0 {
		return e.lastID, e.lastID + delta
	}
	return e.lastID + delta, e.lastID
}

// Observed reports how many touches have been observed.
func (e *Extrapolator) Observed() int { return e.observed }

// LastID reports the most recently observed tuple id.
func (e *Extrapolator) LastID() int { return e.lastID }

// InterTouch reports the smoothed time between processed touches.
func (e *Extrapolator) InterTouch() time.Duration { return e.interTouch }

// StepSize reports the expected tuple-id distance between consecutive
// touches (signed). Since span execution, a slide step consumes every
// tuple of that distance, so the prefetcher sizes a contiguous ranged
// warm from it rather than warming isolated predicted positions.
func (e *Extrapolator) StepSize() float64 {
	return e.velocity * e.interTouch.Seconds()
}

// Reset clears gesture history (call between gestures).
func (e *Extrapolator) Reset() {
	v := e.Alpha
	*e = Extrapolator{Alpha: v}
}

// Stats counts prefetcher activity.
type Stats struct {
	// IdleSpent is virtual idle time consumed warming blocks.
	IdleSpent time.Duration
	// Invocations counts idle windows used.
	Invocations int
	// GrowWarms counts data-growth warms: the object's backing data grew
	// under a paused forward gesture and the frontier was extended into
	// the new rows instead of restarting cold.
	GrowWarms int
}

const (
	// horizon is how far ahead (virtual time) the prefetcher
	// extrapolates the gesture.
	horizon = 500 * time.Millisecond
	// slack is the relative velocity-estimate error budget: each
	// predicted position k steps ahead is warmed with a halo of
	// ±slack·|step|·k tuples.
	slack = 0.08
)

// Prefetcher converts idle windows into warm blocks along the predicted
// path.
type Prefetcher struct {
	// Enabled gates the whole mechanism (the ablation switch).
	Enabled bool
	// Extrapolator supplies predictions.
	Extrapolator *Extrapolator

	stats Stats
	// anchor and frontier extend prefetching across consecutive idle
	// windows of one pause: while the gesture stays at anchor, each
	// window continues from where the previous one stopped (frontier is
	// a tuple index) instead of re-warming the already-warm span.
	anchor     int
	frontier   int
	haveAnchor bool
}

// New returns an enabled prefetcher over the given extrapolator.
func New(e *Extrapolator) *Prefetcher {
	return &Prefetcher{Enabled: true, Extrapolator: e}
}

// OnIdle spends the idle window [from, to) warming predicted blocks in
// tracker. The clamp function (optional) bounds predicted tuple ids to
// the valid range.
func (p *Prefetcher) OnIdle(from, to time.Duration, tracker *iomodel.Tracker, clamp func(int) int) {
	if p == nil || !p.Enabled || p.Extrapolator == nil || tracker == nil {
		return
	}
	budget := to - from
	if budget <= 0 {
		return
	}
	last := p.Extrapolator.LastID()
	if p.haveAnchor && p.anchor != last {
		p.frontier = last
	}
	if !p.haveAnchor {
		p.frontier = last
	}
	p.anchor, p.haveAnchor = last, true

	step := p.Extrapolator.StepSize()
	interTouch := p.Extrapolator.InterTouch()
	var used time.Duration
	stepMag := step
	if stepMag < 0 {
		stepMag = -stepMag
	}
	if stepMag < 1 || interTouch <= 0 {
		// No reliable stride (gesture barely started): warm the
		// immediate neighborhood symmetrically.
		lo, hi := p.Extrapolator.Predict(horizon)
		if clamp != nil {
			lo, hi = clamp(lo), clamp(hi)
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		used, _ = tracker.PrefetchRange(lo, hi, budget)
		p.account(used)
		return
	}
	// Span-aware warm: since span execution, a slide step consumes every
	// tuple between consecutive touches — not just the sampled positions —
	// so the right thing to warm is the whole span the gesture is
	// extrapolated to cover during the horizon, as one ranged warm from
	// the finger outward in the movement direction. A slack margin
	// proportional to the predicted distance absorbs velocity-estimate
	// error; consecutive idle windows of one pause resume from the
	// frontier the previous window reached.
	steps := float64(horizon) / float64(interTouch)
	if steps < 1 {
		steps = 1
	}
	span := stepMag * steps
	margin := int(slack * span)
	if margin < 64 {
		margin = 64 // always cover a summary window
	}
	if step > 0 {
		start := last
		if p.frontier > start {
			start = p.frontier
		}
		target := last + int(span) + margin
		if clamp != nil {
			start, target = clamp(start), clamp(target)
		}
		// >= not >: a span clamped entirely to the data boundary still
		// warms the boundary block (the gesture is about to park there).
		if target >= start {
			cost, frontier := tracker.PrefetchRange(start, target, budget)
			used = cost
			if frontier > p.frontier {
				p.frontier = frontier
			}
		}
	} else {
		start := last
		if p.frontier < start {
			start = p.frontier
		}
		target := last - int(span) - margin
		if clamp != nil {
			start, target = clamp(start), clamp(target)
		}
		used = p.warmDescending(tracker, start, target, budget)
	}
	p.account(used)
}

// warmDescending warms blocks covering [target, start] back to front —
// the ranged warm for backward gestures, where the tuples nearest the
// finger are at the high end of the span. It returns the cost consumed
// and moves the frontier to the lowest value index reached.
func (p *Prefetcher) warmDescending(tracker *iomodel.Tracker, start, target int, budget time.Duration) time.Duration {
	if start < target {
		return 0
	}
	bv := tracker.Params().BlockValues
	cold := tracker.Params().ColdLatency
	var used time.Duration
	for b := start / bv; b >= target/bv && b >= 0; b-- {
		idx := b * bv
		if budget-used < cold && !tracker.IsWarm(idx) {
			break
		}
		used += tracker.PrefetchBlock(idx, budget-used)
		if idx < p.frontier {
			p.frontier = idx
		}
	}
	return used
}

// OnGrow extends the warm frontier when the object's backing data grows
// under a paused gesture (a live table published new rows and the kernel
// repinned). Limits are in index space of the tracked level: oldLimit is
// the level length the previous warms clamped against, newLimit the
// length after the hop. The warm resumes from the extrapolated frontier
// — which a forward gesture parked at the end of the data had pinned to
// the old boundary — instead of restarting cold, so when the gesture
// resumes into the appended rows they are already warm. The time budget
// is the smoothed inter-touch gap: the window the gesture's own rhythm
// says we have before the next touch lands. Reports whether a warm ran.
func (p *Prefetcher) OnGrow(oldLimit, newLimit int, tracker *iomodel.Tracker) bool {
	if p == nil || !p.Enabled || p.Extrapolator == nil || tracker == nil {
		return false
	}
	if !p.haveAnchor || newLimit <= oldLimit || oldLimit <= 0 {
		return false
	}
	// Only forward gestures meet appended rows; a backward gesture moves
	// away from where growth lands, and a parked one gets the symmetric
	// neighborhood from the normal idle path.
	if p.Extrapolator.Direction() != 1 {
		return false
	}
	budget := p.Extrapolator.InterTouch()
	if budget <= 0 {
		return false
	}
	// Only when the previous warm ran into the old data boundary: if the
	// frontier is still well inside the old range, growth did not block
	// it and the ordinary idle warms keep extending it.
	bv := tracker.Params().BlockValues
	if p.frontier < oldLimit-bv {
		return false
	}
	stepMag := p.Extrapolator.StepSize()
	if stepMag < 0 {
		stepMag = -stepMag
	}
	steps := float64(horizon) / float64(budget)
	if steps < 1 {
		steps = 1
	}
	span := stepMag * steps
	margin := int(slack * span)
	if margin < 64 {
		margin = 64
	}
	start := p.frontier
	if start < 0 {
		start = 0
	}
	target := start + int(span) + margin
	if target > newLimit-1 {
		target = newLimit - 1
	}
	if target < start {
		return false
	}
	cost, frontier := tracker.PrefetchRange(start, target, budget)
	if frontier > p.frontier {
		p.frontier = frontier
	}
	p.account(cost)
	if cost > 0 {
		p.stats.GrowWarms++
	}
	return cost > 0
}

func (p *Prefetcher) account(used time.Duration) {
	if used > 0 {
		p.stats.IdleSpent += used
		p.stats.Invocations++
	}
}
