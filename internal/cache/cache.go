// Package cache implements gesture-aware caching (paper §2.6 "Caching
// Data"): "dbTouch needs to observe the gesture patterns and adjust the
// caching policy according to the expected progression of the gesture."
//
// The package supplies eviction policies for iomodel trackers — plain LRU
// lives in iomodel; here are the gesture-aware alternative and a
// no-caching strawman. A policy keeps no state of the gesture: the
// tracker owns the frontier (the last block it charged and the last
// direction it moved in) and passes it to Victim, so charging a warm
// block never calls into a policy. Cache-to-sample promotion reads core's
// per-object touch histogram, not these policies.
package cache

import (
	"time"

	"dbtouch/internal/iomodel"
)

// GestureAware protects blocks the gesture is likely to revisit: blocks
// just *behind* the current movement direction (back-and-forth slides
// re-examine them). Victims are chosen by lowest protection score,
// breaking ties by recency and then by block number.
type GestureAware struct {
	// Window is how many blocks behind the frontier stay protected.
	Window int
}

// NewGestureAware returns a policy protecting window blocks behind the
// gesture frontier (window <= 0 selects 8).
func NewGestureAware(window int) *GestureAware {
	if window <= 0 {
		window = 8
	}
	return &GestureAware{Window: window}
}

// Name implements iomodel.EvictionPolicy.
func (g *GestureAware) Name() string { return "gesture-aware" }

// Victim implements iomodel.EvictionPolicy: keep the finger's
// neighborhood. The gesture frontier is the last charged block, last;
// the warm block farthest from it is evicted first, with a tie broken
// toward the block *behind* the movement direction dir beyond the
// protection window (ahead-of-finger blocks are about to be touched;
// just-behind blocks are what a direction reversal revisits). A full tie
// — same score, same last use — goes to the lower block.
func (g *GestureAware) Victim(warm *iomodel.WarmSet, last, dir int) int {
	victim, found := -1, false
	var victimScore float64
	var victimUse time.Duration
	for b, use := range warm.All() {
		dist := b - last
		if last < 0 {
			dist = 0
		}
		score := -absInt(dist) // farther = lower = evicted earlier
		if dir != 0 && dist*dir < 0 && absInt(dist) > float64(g.Window) {
			// Far behind the direction of travel beyond the protected
			// trailing window: least likely to be touched soon.
			score -= float64(g.Window)
		}
		if !found || score < victimScore || (score == victimScore && (use < victimUse || use == victimUse && b < victim)) {
			victim, victimScore, victimUse, found = b, score, use, true
		}
	}
	return victim
}

func absInt(v int) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

// None is the no-caching strawman: every block is evicted as soon as the
// budget forces a choice, preferring the most recently used so nothing
// accumulates (used with WarmBudget=1-ish configs to model cold reads).
type None struct{}

// Name implements iomodel.EvictionPolicy.
func (None) Name() string { return "none" }

// Victim implements iomodel.EvictionPolicy: evict the newest block, the
// higher block on a tie.
func (None) Victim(warm *iomodel.WarmSet, _, _ int) int {
	victim, newest := -1, time.Duration(-1)
	for b, t := range warm.All() {
		if t > newest || (t == newest && b > victim) {
			victim, newest = b, t
		}
	}
	return victim
}
