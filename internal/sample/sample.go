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
// a Shared holds the sample columns and their span statistics (prefix
// sums, zone maps) — safe for any number of concurrent exploration
// sessions — while a Hierarchy is one session's view of a Shared,
// carrying the mutable access trackers that charge that session's
// virtual clock. BuildShared + Attach is the multi-session path; Build
// remains the single-session convenience that does both.
//
// A level and its span statistics are built under two policies. A static
// column's level is copied from the base the first time a session reads
// it, and its statistics on its first span, so memory holds only the
// levels touches actually read: filtered touches read base data only. A
// live column's levels (Versioned) build eagerly, extended on every
// append and published per version. Span statistics have one builder,
// levelTail.extend, under both.
package sample

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// sharedLevel is the immutable half of one stored sample level: the
// sample column plus its lazily built span statistics, shared by every
// session attached to the same Shared.
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

	// once guards the single-flight build of span: the first session to
	// aggregate a span on this level builds the statistics; concurrent
	// sessions block briefly and then share the result.
	once sync.Once
	span *spanStats
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

// defaultBlockLen is the zone-map block size (values per block) when the
// cost model sets none.
const defaultBlockLen = 1024

// stats returns the level's span metadata, building it on first use: a
// fresh levelTail extended once over the whole column and carved by
// statsView, exactly as a live chain would publish it. blockValues sizes
// the zone-map blocks; the first caller's cost-model block size wins,
// which only affects wall-clock work (correctness and virtual-time
// charging are independent of the blocking).
func (sl *sharedLevel) stats(blockValues int) *spanStats {
	sl.once.Do(func() {
		if blockValues <= 0 {
			blockValues = defaultBlockLen
		}
		col := sl.column()
		n := col.Len()
		var t levelTail
		t.extend(col, n, blockValues)
		sl.span = new(spanStats)
		t.statsView(sl.span, n, blockValues)
	})
	return sl.span
}

// spanStats is precomputed aggregation metadata over one level's column:
// prefix sums make span sums a subtraction, and per-block min/max arrays
// (zone-map style, aligned to the cost model's block size) reduce span
// min/max to edge scans plus one comparison per interior block. The
// metadata is auxiliary (like an index): building it charges no virtual
// time, and the cost model still charges every span read through the
// level's tracker as if the entries themselves were scanned. Every
// spanStats is a statsView of a levelTail, so levelTail.extend is the
// one place its arrays are computed.
type spanStats struct {
	// prefix[i] is the sum of the finite values among entries [0, i),
	// computed left to right (float columns only; nil otherwise).
	prefix []float64
	// blockNF counts each block's NaN and infinite entries, and firstNF
	// is the index of the level's first one (math.MaxInt when there is
	// none) — float columns only. A span ending at or before firstNF
	// reads neither.
	blockNF []storage.NonFinite
	firstNF int
	// iprefix[i] is the wrapping int64 sum of entries [0, i) for
	// integer-backed columns (int values, bool 0/1, string codes) — a
	// span sum of integer data is exact while it fits in int64 (nil for
	// floats).
	iprefix []int64
	// blockMin/blockMax aggregate entries [b*blockLen, (b+1)*blockLen),
	// complete blocks only. SpanEntries reads them for interior blocks
	// exclusively (head and tail partial blocks scan natively), and an
	// interior block of a span within n entries always ends by n.
	blockMin, blockMax []float64
	blockLen           int
}

// levelTail is the one builder of span statistics: append-only arrays
// for one sample level, grown by extend and frozen into spanStats by
// statsView. It serves two policies. A static level builds once and
// lazily — sharedLevel.stats extends a fresh tail over the whole column
// on the first span. A live level builds eagerly — Versioned extends its
// tail on every append, and because the arrays only grow at the end, a
// published view of the first n entries stays immutable while the tail
// keeps growing and is bit-identical to a from-scratch build of those n
// entries.
type levelTail struct {
	// stride is the base-tuple distance between entries (2^level).
	stride int
	// col holds a live level's own sample values (nil for level 0, whose
	// values are the base column itself, and for static levels).
	col *storage.Column
	// iprefix, prefix, blockMin, blockMax, blockNF and firstNF are the
	// spanStats arrays of the same names, covering every entry extended
	// so far.
	iprefix            []int64
	prefix             []float64
	blockMin, blockMax []float64
	blockNF            []storage.NonFinite
	firstNF            int
}

// extend advances the tail to cover the first n values of col, the
// level's own values, with zone-map blocks of blockLen; n never shrinks
// across calls. Each new entry adds exactly the term a single left-to-
// right pass would add at that index, and a block is computed once, when
// it completes, and never changes.
func (t *levelTail) extend(col *storage.Column, n, blockLen int) {
	// Reserve each array's growth once: a fresh tail (a static level, or
	// a live one after a compaction restart) grows by its whole length in
	// one call, and append's doubling would copy it several times over.
	float := col.Type() == storage.Float64
	vals := col.Floats()
	if !float {
		// Integer-backed columns keep wrapping int64 prefix sums: a span
		// sum of int data is exact while it fits in int64.
		if t.iprefix == nil {
			t.iprefix = make([]int64, 1, n+1)
		}
		t.iprefix = slices.Grow(t.iprefix, n+1-len(t.iprefix))
		for k := len(t.iprefix) - 1; k < n; k++ {
			t.iprefix = append(t.iprefix, t.iprefix[k]+col.Int(k))
		}
	} else {
		// Float columns accumulate their finite values left to right and
		// count the others per block, so one NaN or infinity decides only
		// the spans that hold it.
		if t.prefix == nil {
			t.prefix = make([]float64, 1, n+1)
			t.firstNF = math.MaxInt
		}
		t.prefix = slices.Grow(t.prefix, n+1-len(t.prefix))
		acc := t.prefix[len(t.prefix)-1]
		for k := len(t.prefix) - 1; k < n; k++ {
			if f := vals[k]; f-f == 0 {
				acc += f
			} else {
				t.firstNF = min(t.firstNF, k)
			}
			t.prefix = append(t.prefix, acc)
		}
	}
	if blocks := n/blockLen - len(t.blockMin); blocks > 0 {
		t.blockMin = slices.Grow(t.blockMin, blocks)
		t.blockMax = slices.Grow(t.blockMax, blocks)
		if float {
			t.blockNF = slices.Grow(t.blockNF, blocks)
		}
	}
	for b := len(t.blockMin); (b+1)*blockLen <= n; b++ {
		lo, hi := b*blockLen, (b+1)*blockLen
		mn, mx, _ := col.MinMaxRange(lo, hi)
		t.blockMin = append(t.blockMin, mn)
		t.blockMax = append(t.blockMax, mx)
		if float {
			var nf storage.NonFinite
			if t.firstNF < hi {
				countNonFinite(&nf, vals[lo:hi])
			}
			t.blockNF = append(t.blockNF, nf)
		}
	}
}

// statsView sets s to the frozen statistics for the first n level
// entries, carved out of the tail's append-only arrays.
func (t *levelTail) statsView(s *spanStats, n, blockLen int) {
	nb := n / blockLen
	s.blockMin = t.blockMin[:nb:nb]
	s.blockMax = t.blockMax[:nb:nb]
	s.blockLen = blockLen
	if t.iprefix != nil {
		s.iprefix = t.iprefix[: n+1 : n+1]
	} else {
		s.prefix = t.prefix[: n+1 : n+1]
		s.blockNF = t.blockNF[:nb:nb]
		s.firstNF = t.firstNF
	}
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

	// shared backs the lazily built span statistics.
	shared *sharedLevel
}

// stats returns the level's span metadata via the shared single-flight
// build.
func (l *Level) stats() *spanStats {
	return l.shared.stats(l.Tracker.Params().BlockValues)
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

// SpanEntries aggregates sample entries [from, to) of level as one unit:
// the sum comes from the level's prefix-sum array, min/max from the
// per-block zone maps plus edge scans, and the whole span is charged
// through the tracker's ranged accounting — identical virtual cost to a
// per-entry scan, a fraction of the wall-clock work. Integer-backed
// columns difference int64 prefix sums, so a span sum is exact while the
// span's sum fits in int64; a larger one wraps. Float spans difference
// the prefix of finite values and settle NaN and infinities from their
// counts by the IEEE rule (storage.NonFinite.Apply); the finite part may
// differ from a per-entry loop in the last ulp (different association
// order).
func (h *Hierarchy) SpanEntries(from, to, level int) (sum float64, n int, min, max float64, err error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if from < 0 {
		from = 0
	}
	if to > l.Col.Len() {
		to = l.Col.Len()
	}
	min, max = math.Inf(1), math.Inf(-1)
	if from >= to {
		return 0, 0, min, max, nil
	}
	l.Tracker.AccessRange(from, to)
	s := l.stats()
	if s.iprefix != nil {
		sum = float64(s.iprefix[to] - s.iprefix[from])
	} else {
		sum = s.prefix[to] - s.prefix[from]
		if to > s.firstNF {
			sum = s.nonFinite(l.Col, from, to).Apply(sum)
		}
	}
	n = to - from
	firstB, lastB := from/s.blockLen, (to-1)/s.blockLen
	if firstB == lastB {
		min, max, _ = l.Col.MinMaxRange(from, to)
		return sum, n, min, max, nil
	}
	// Head and tail partial blocks scan natively; interior blocks read
	// the zone maps.
	headHi := (firstB + 1) * s.blockLen
	min, max, _ = l.Col.MinMaxRange(from, headHi)
	for b := firstB + 1; b < lastB; b++ {
		if s.blockMin[b] < min {
			min = s.blockMin[b]
		}
		if s.blockMax[b] > max {
			max = s.blockMax[b]
		}
	}
	tailLo := lastB * s.blockLen
	tmin, tmax, _ := l.Col.MinMaxRange(tailLo, to)
	if tmin < min {
		min = tmin
	}
	if tmax > max {
		max = tmax
	}
	return sum, n, min, max, nil
}

// nonFinite counts the NaN and infinite entries of [from, to): edge
// scans of the partial head and tail blocks, and the block counts in
// between.
func (s *spanStats) nonFinite(col *storage.Column, from, to int) storage.NonFinite {
	var nf storage.NonFinite
	vals := col.Floats()
	firstB, lastB := from/s.blockLen, (to-1)/s.blockLen
	if firstB == lastB {
		countNonFinite(&nf, vals[from:to])
		return nf
	}
	countNonFinite(&nf, vals[from:(firstB+1)*s.blockLen])
	for b := firstB + 1; b < lastB; b++ {
		nf.Merge(s.blockNF[b])
	}
	countNonFinite(&nf, vals[lastB*s.blockLen:to])
	return nf
}

// countNonFinite counts the NaN and infinite values of vals into nf.
func countNonFinite(nf *storage.NonFinite, vals []float64) {
	for _, v := range vals {
		if v-v != 0 {
			nf.Count(v)
		}
	}
}

// SpanAgg aggregates the sample entries of level covering base range
// [lo, hi) via SpanEntries: entries lo/stride up to the one holding
// hi-1.
func (h *Hierarchy) SpanAgg(lo, hi, level int) (sum float64, n int, min, max float64, err error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	from := lo / l.Stride
	to := (hi + l.Stride - 1) / l.Stride
	return h.SpanEntries(from, to, level)
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
