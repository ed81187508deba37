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
// a Shared holds the sample columns and their lazily built span statistics
// (prefix sums, zone maps) — built once, safe for any number of concurrent
// exploration sessions — while a Hierarchy is one session's view of a
// Shared, carrying the mutable access trackers that charge that session's
// virtual clock. BuildShared + Attach is the multi-session path; Build
// remains the single-session convenience that does both.
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
// sample column plus its lazily built span statistics, shared by every
// session attached to the same Shared.
type sharedLevel struct {
	// stride is the base-tuple distance between consecutive entries.
	stride int
	// col holds the sample values densely (immutable once built).
	col *storage.Column

	// once guards the single-flight build of span: the first session to
	// aggregate a span on this level builds the statistics; concurrent
	// sessions block briefly and then share the result.
	once sync.Once
	span *spanStats
}

// stats returns the level's span metadata, building it on first use.
// blockValues sizes the zone-map blocks; the first caller's cost-model
// block size wins, which only affects wall-clock work (correctness and
// virtual-time charging are independent of the blocking).
func (sl *sharedLevel) stats(blockValues int) *spanStats {
	sl.once.Do(func() {
		n := sl.col.Len()
		blockLen := blockValues
		if blockLen <= 0 {
			blockLen = 1024
		}
		s := &spanStats{
			blockMin: make([]float64, (n+blockLen-1)/blockLen),
			blockMax: make([]float64, (n+blockLen-1)/blockLen),
			blockLen: blockLen,
		}
		for b := range s.blockMin {
			lo, hi := b*blockLen, (b+1)*blockLen
			min, max, _ := sl.col.MinMaxRange(lo, hi)
			s.blockMin[b], s.blockMax[b] = min, max
		}
		// Integer-backed columns keep exact int64 prefix sums: span sums
		// of int data are exact at any magnitude and the build runs on
		// native integer adds. Float columns accumulate their finite
		// values left to right and count the others per block, so one NaN
		// or infinity decides only the spans that hold it.
		if sl.col.Type() != storage.Float64 {
			ip := make([]int64, n+1)
			sl.col.PrefixInts(ip)
			s.iprefix = ip
		} else {
			s.prefix = make([]float64, n+1)
			s.blockNF = make([]storage.NonFinite, len(s.blockMin))
			s.firstNF = math.MaxInt
			acc := 0.0
			idx := 0
			sl.col.AddRangeTo(0, n, func(v float64) {
				if v-v == 0 {
					acc += v
				} else {
					s.blockNF[idx/blockLen].Count(v)
					s.firstNF = min(s.firstNF, idx)
				}
				idx++
				s.prefix[idx] = acc
			})
		}
		sl.span = s
	})
	return sl.span
}

// spanStats is precomputed aggregation metadata over one level's column:
// prefix sums make span sums a subtraction, and per-block min/max arrays
// (zone-map style, aligned to the cost model's block size) reduce span
// min/max to edge scans plus one comparison per interior block. The
// metadata is auxiliary (like an index): building it charges no virtual
// time, and the cost model still charges every span read through the
// level's tracker as if the entries themselves were scanned.
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
	// iprefix[i] is the exact int64 sum of entries [0, i) for
	// integer-backed columns (int values, bool 0/1, string codes) — span
	// sums of integer data are exact at any magnitude (nil for floats).
	iprefix []int64
	// blockMin/blockMax aggregate entries [b*blockLen, (b+1)*blockLen).
	blockMin, blockMax []float64
	blockLen           int
}

// Shared is the immutable half of a sample hierarchy: the base column and
// its stored sample levels, without any per-session state. One Shared is
// built per (column, depth) and attached by every session exploring that
// column; all methods are safe for concurrent use.
type Shared struct {
	levels []*sharedLevel // levels[0] is base data (stride 1)
}

// BuildShared constructs the immutable sample levels over base with
// maxLevels levels above the base (so maxLevels=0 means base only). Each
// level halves the previous one; construction stops early when a level
// would drop below minLen entries (default 64).
func BuildShared(base *storage.Column, maxLevels int) (*Shared, error) {
	if base == nil || base.Len() == 0 {
		return nil, fmt.Errorf("sample: empty base column")
	}
	const minLen = 64
	s := &Shared{}
	s.levels = append(s.levels, &sharedLevel{stride: 1, col: base})
	prev := base
	for lvl := 1; lvl <= maxLevels; lvl++ {
		if prev.Len()/2 < minLen {
			break
		}
		col := prev.Strided(0, 2)
		s.levels = append(s.levels, &sharedLevel{stride: 1 << lvl, col: col})
		prev = col
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
			Col:     sl.col,
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
	// treat as read-only).
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
			h.levels[i].Col = sl.col
			h.levels[i].shared = sl
			continue
		}
		h.levels = append(h.levels, &Level{
			Stride:  sl.stride,
			Col:     sl.col,
			Tracker: iomodel.New(h.clock, h.params, h.newPolicy()),
			shared:  sl,
		})
	}
	h.shared = s
}

// NumLevels reports the number of stored levels including base.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns stored level i (0 = base).
func (h *Hierarchy) Level(i int) (*Level, error) {
	if i < 0 || i >= len(h.levels) {
		return nil, fmt.Errorf("sample: no level %d (have %d)", i, len(h.levels))
	}
	return h.levels[i], nil
}

// Base returns the base column.
func (h *Hierarchy) Base() *storage.Column { return h.levels[0].Col }

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
	rows := h.levels[0].Col.Len()
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
	level := int(lv)
	if level < 0 {
		level = 0
	}
	if level >= len(h.levels) {
		level = len(h.levels) - 1
	}
	return level
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

// WindowAgg aggregates sample entries of level covering base range
// [lo, hi), charging per entry, and returns (sum, count, min, max).
func (h *Hierarchy) WindowAgg(lo, hi, level int) (sum float64, n int, min, max float64, err error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	from := lo / l.Stride
	to := (hi + l.Stride - 1) / l.Stride
	if from < 0 {
		from = 0
	}
	if to > l.Col.Len() {
		to = l.Col.Len()
	}
	min, max = math.Inf(1), math.Inf(-1)
	for i := from; i < to; i++ {
		l.Tracker.Access(i)
		v := l.Col.Float(i)
		sum += v
		n++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return sum, n, min, max, nil
}

// SpanEntries aggregates sample entries [from, to) of level as one unit:
// the sum comes from the level's prefix-sum array, min/max from the
// per-block zone maps plus edge scans, and the whole span is charged
// through the tracker's ranged accounting — identical virtual cost to a
// per-entry scan, a fraction of the wall-clock work. Integer-backed
// columns difference exact int64 prefix sums, so span sums are exact at
// any magnitude and bit-identical to WindowAgg's scalar loop whenever
// that loop is itself exact. Float spans difference the prefix of finite
// values and settle NaN and infinities from their counts by the IEEE rule
// (storage.NonFinite.Apply); the finite part may differ from a scalar
// loop in the last ulp (different association order).
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

// SpanAgg is the vectorized WindowAgg: it aggregates the sample entries
// of level covering base range [lo, hi) via SpanEntries, using the exact
// same base→entry conversion as WindowAgg so the two are interchangeable.
func (h *Hierarchy) SpanAgg(lo, hi, level int) (sum float64, n int, min, max float64, err error) {
	l, err := h.Level(level)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	from := lo / l.Stride
	to := (hi + l.Stride - 1) / l.Stride
	return h.SpanEntries(from, to, level)
}

// Promote adds a stored sample covering base range [lo, hi) at base
// resolution as a new finest-of-region level. It models §2.6 "Caching
// Data": heavily revisited regions get their own materialized copy so
// future queries at similar granularity feed from it. The returned column
// is also registered as an extra level with stride 1 offset lo — callers
// address it directly.
func (h *Hierarchy) Promote(lo, hi int, clock *vclock.Clock, params iomodel.Params) (*storage.Column, error) {
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
