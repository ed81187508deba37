// Package sample implements sample-based storage (paper §2.6 "Sample-based
// Storage", after Sciborg's hierarchies of samples): instead of always
// feeding from base data, dbTouch keeps a hierarchy of progressively
// coarser stored samples and serves each touch from the level matched to
// the object size and gesture speed, "minimizing the auxiliary data
// reads". Level 0 is base data; level i keeps every 2^i-th value as its
// own dense column with its own access tracker, so reading at a coarse
// granularity touches a physically small array.
//
// The hierarchy is split along the shared-immutable vs per-session line:
// a Shared holds the sample columns — safe for any number of concurrent
// exploration sessions — while a Hierarchy is one session's view of a
// Shared, carrying the mutable access trackers that charge that
// session's virtual clock. BuildShared + Attach is the multi-session
// path; Build remains the single-session convenience that does both.
//
// A level is built under two policies. A static column's level is copied
// from the base the first time a session reads it, so memory holds only
// the levels touches actually read: filtered touches read base data
// only. A live column's levels (Versioned) build eagerly, extended on
// every append and published per version. A level is only its column:
// span aggregates over it run through the storage span kernels
// (Column.SumRange into an exact sum, MinMaxRange), the same kernels that
// answer table and filtered spans.
package sample

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// sharedLevel is the immutable half of one stored sample level: the
// sample column, shared by every session attached to the same Shared.
type sharedLevel struct {
	// stride is the base-tuple distance between consecutive entries.
	stride int
	// col holds the sample values densely (immutable once built). Base
	// data and live levels set it at construction; a static level above
	// the base copies it from src on its first read. Read it through
	// column.
	col *storage.Column
	// src is the base column a static level samples (nil otherwise), and
	// colOnce guards the single-flight copy from it.
	src     *storage.Column
	colOnce sync.Once
}

// column returns the level's values, copying every stride-th base value
// the first time any session reads a static level; concurrent first
// readers block briefly and then share the copy.
func (sl *sharedLevel) column() *storage.Column {
	if sl.src != nil {
		sl.colOnce.Do(func() { sl.col = sl.src.Strided(0, sl.stride) })
	}
	return sl.col
}

// minLevelLen is the smallest sample level stored: a level is built only
// while it keeps at least this many entries.
const minLevelLen = 64

// levelsFor reports the highest stored level over n base rows: level i
// exists iff i <= maxLevels and level i-1 holds at least 2*minLevelLen
// entries. BuildShared and the live chain both stop on it.
func levelsFor(n, maxLevels int) int {
	top := 0
	for top < maxLevels && n/2 >= minLevelLen {
		top++
		n = ceilDiv(n, 2)
	}
	return top
}

func ceilDiv(n, d int) int { return (n + d - 1) / d }

// Shared is the immutable half of a sample hierarchy: the base column and
// its stored sample levels, without any per-session state. One Shared is
// built per (column, depth) and attached by every session exploring that
// column; all methods are safe for concurrent use.
type Shared struct {
	levels []*sharedLevel // levels[0] is base data (stride 1)
}

// BuildShared lays out the immutable sample levels over base with
// maxLevels levels above the base (so maxLevels=0 means base only). Each
// level halves the previous one; the levels stop early when one would
// drop below minLevelLen entries (levelsFor). No level is copied here:
// each is built on its first read (sharedLevel.column).
func BuildShared(base *storage.Column, maxLevels int) (*Shared, error) {
	if base == nil || base.Len() == 0 {
		return nil, fmt.Errorf("sample: empty base column")
	}
	s := &Shared{levels: []*sharedLevel{{stride: 1, col: base}}}
	for lvl := 1; lvl <= levelsFor(base.Len(), maxLevels); lvl++ {
		s.levels = append(s.levels, &sharedLevel{stride: 1 << lvl, src: base})
	}
	return s, nil
}

// Attach builds one session's view of the shared hierarchy: every level
// gets a fresh tracker charging the session's clock with params, so
// sessions account I/O independently while reading the same arrays.
func (s *Shared) Attach(clock *vclock.Clock, params iomodel.Params, policy func() iomodel.EvictionPolicy) *Hierarchy {
	newPolicy := func() iomodel.EvictionPolicy {
		if policy == nil {
			return nil
		}
		return policy()
	}
	h := &Hierarchy{shared: s, clock: clock, params: params, newPolicy: newPolicy}
	for _, sl := range s.levels {
		h.levels = append(h.levels, &Level{
			Stride:  sl.stride,
			Tracker: iomodel.New(clock, params, newPolicy()),
			shared:  sl,
		})
	}
	return h
}

// Level is one session's handle on one stored sample level: the shared
// immutable column plus the session's own access tracker.
type Level struct {
	// Stride is the base-tuple distance between consecutive sample
	// entries (2^level).
	Stride int
	// Col holds the sample values densely (shared across sessions;
	// treat as read-only). Hierarchy.Level fills it: a static level's
	// values are copied the first time any session reads it.
	Col *storage.Column
	// Tracker charges access costs for this level's array against the
	// owning session's clock.
	Tracker *iomodel.Tracker

	// shared backs Col: Hierarchy.Level fills Col from it.
	shared *sharedLevel
}

// Hierarchy is one session's view of a column's sample hierarchy: shared
// immutable sample columns, per-session trackers. It is owned by one
// session and is not safe for concurrent use (the shared half is).
type Hierarchy struct {
	shared *Shared
	levels []*Level // levels[0] is base data (stride 1)

	// Attach parameters, retained so Rebind can mint trackers for levels
	// that appear when a live table grows.
	clock     *vclock.Clock
	params    iomodel.Params
	newPolicy func() iomodel.EvictionPolicy
}

// Build constructs a single-session hierarchy over base: BuildShared
// followed by Attach. Multi-session callers build the Shared once and
// attach per session instead.
func Build(base *storage.Column, maxLevels int, clock *vclock.Clock, params iomodel.Params, policy func() iomodel.EvictionPolicy) (*Hierarchy, error) {
	s, err := BuildShared(base, maxLevels)
	if err != nil {
		return nil, err
	}
	return s.Attach(clock, params, policy), nil
}

// Shared exposes the immutable half for attaching further sessions.
func (h *Hierarchy) Shared() *Shared { return h.shared }

// Rebind swaps the hierarchy onto a new Shared (a newer live-table
// snapshot) while keeping the session's warmth: levels present in both
// hierarchies keep their trackers — the cost model's cache state is the
// session's touch history, which append-only growth does not invalidate —
// levels that appear as the table grows get fresh trackers, and levels
// past the new depth are dropped (only possible after compaction shrinks
// the table).
func (h *Hierarchy) Rebind(s *Shared) {
	n := len(s.levels)
	if n < len(h.levels) {
		h.levels = h.levels[:n]
	}
	for i, sl := range s.levels {
		if i < len(h.levels) {
			h.levels[i].Stride = sl.stride
			h.levels[i].Col = nil
			h.levels[i].shared = sl
			continue
		}
		h.levels = append(h.levels, &Level{
			Stride:  sl.stride,
			Tracker: iomodel.New(h.clock, h.params, h.newPolicy()),
			shared:  sl,
		})
	}
	h.shared = s
}

// NumLevels reports the number of stored levels including base.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns stored level i (0 = base), with its column: reading a
// static level for the first time copies it.
func (h *Hierarchy) Level(i int) (*Level, error) {
	if i < 0 || i >= len(h.levels) {
		return nil, fmt.Errorf("sample: no level %d (have %d)", i, len(h.levels))
	}
	l := h.levels[i]
	if l.Col == nil {
		l.Col = l.shared.column()
	}
	return l, nil
}

// SetDirection forwards the gesture direction to every level's tracker,
// so gesture-aware eviction can protect trailing blocks. It builds no
// level.
func (h *Hierarchy) SetDirection(dir int) {
	for _, l := range h.levels {
		l.Tracker.SetDirection(dir)
	}
}

// Base returns the base column.
func (h *Hierarchy) Base() *storage.Column { return h.levels[0].shared.column() }

// SelectLevel picks the coarsest level whose stride does not exceed the
// expected base-tuple gap between consecutive touches, so consecutive
// touches land on adjacent-ish sample entries and no finer data is pulled
// than the gesture can observe.
//
// The expected gap follows from the paper's granularity model: an object
// of extent cm moving under a gesture whose touches arrive every
// interTouch seconds at speed cmPerSec covers (cmPerSec·interTouch) cm per
// touch, i.e. gap = rows · cmPerSec · interTouch / extent base tuples.
func (h *Hierarchy) SelectLevel(extentCm, cmPerSec float64, interTouch time.Duration) int {
	if extentCm <= 0 || cmPerSec <= 0 || interTouch <= 0 {
		return 0
	}
	rows := h.Base().Len()
	gap := float64(rows) * cmPerSec * interTouch.Seconds() / extentCm
	return h.SelectLevelForGap(gap)
}

// SelectLevelForGap picks the coarsest level whose stride does not exceed
// an already-known base-tuple gap between consecutive touches — the
// direct form of SelectLevel for callers that observe the gap instead of
// deriving it from screen geometry (the touch extrapolator measures it
// from the gesture's own history, which folds in the real sensor rate
// and mapping instead of the geometric model's assumptions).
func (h *Hierarchy) SelectLevelForGap(gap float64) int {
	if gap < 1 || math.IsNaN(gap) {
		return 0
	}
	// Clamp before the int conversion: int(+Inf) is implementation-defined.
	lv := math.Floor(math.Log2(gap))
	if lv >= float64(len(h.levels)) {
		return len(h.levels) - 1
	}
	return int(lv)
}

// ValueAt reads the sample value nearest base tuple baseID from level,
// charging that level's tracker, and returns the value with the base id
// it actually represents.
func (h *Hierarchy) ValueAt(baseID, level int) (float64, int, error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, err
	}
	idx := baseID / l.Stride
	if idx < 0 {
		idx = 0
	}
	if idx >= l.Col.Len() {
		idx = l.Col.Len() - 1
	}
	l.Tracker.Access(idx)
	return l.Col.Float(idx), idx * l.Stride, nil
}

// ScanAt reads the typed value nearest base tuple baseID from level,
// charging that level's tracker, and returns the value with the base id it
// actually represents (plain-scan path; ValueAt is the aggregation path).
func (h *Hierarchy) ScanAt(baseID, level int) (storage.Value, int, error) {
	l, err := h.Level(level)
	if err != nil {
		return storage.Value{}, 0, err
	}
	idx := baseID / l.Stride
	if idx < 0 {
		idx = 0
	}
	if idx >= l.Col.Len() {
		idx = l.Col.Len() - 1
	}
	l.Tracker.Access(idx)
	return l.Col.Value(idx), idx * l.Stride, nil
}

// Promote copies base range [lo, hi) at base resolution into a new
// column. It models §2.6 "Caching Data": heavily revisited regions get
// their own materialized copy so future queries at similar granularity
// feed from it. The hierarchy does not keep the copy: the caller builds
// its own object, with its own sample hierarchy, over it.
func (h *Hierarchy) Promote(lo, hi int) (*storage.Column, error) {
	base := h.Base()
	if lo < 0 || hi > base.Len() || lo >= hi {
		return nil, fmt.Errorf("sample: promote range [%d,%d) out of bounds for %d", lo, hi, base.Len())
	}
	col, err := base.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	return col.Clone(), nil
}

// TotalStats sums tracker stats across levels.
func (h *Hierarchy) TotalStats() iomodel.Stats {
	var total iomodel.Stats
	for _, l := range h.levels {
		s := l.Tracker.Stats()
		total.ColdFetches += s.ColdFetches
		total.WarmHits += s.WarmHits
		total.ValuesRead += s.ValuesRead
		total.Prefetched += s.Prefetched
		total.Evictions += s.Evictions
		total.BytesRead += s.BytesRead
	}
	return total
}
