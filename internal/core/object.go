package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/index"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/layout"
	"dbtouch/internal/mapping"
	"dbtouch/internal/operator"
	"dbtouch/internal/prefetch"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// Object is a visual data object: a view on screen bound to a matrix (or
// one column of it), carrying all the per-object machinery — sample
// hierarchy, trackers, extrapolator, prefetcher, lazy indexes, and the
// configured touch actions.
type Object struct {
	id     int
	kernel *Kernel
	view   *touchos.View
	matrix *storage.Matrix
	// colIdx is the bound attribute for column objects, -1 for tables.
	colIdx int

	// hierarchy backs column objects; cellTracker backs table objects
	// (index space = row*ncols+col).
	hierarchy   *sample.Hierarchy
	cellTracker *iomodel.Tracker
	// colTrackers charge filter/group/join reads per attribute.
	colTrackers []*iomodel.Tracker

	extrap     *prefetch.Extrapolator
	prefetcher *prefetch.Prefetcher
	indexes    *index.Registry
	actions    Actions
	optimizer  *AdaptiveOptimizer
	agg        *operator.RunningAgg
	grouper    *operator.IncrementalGroupBy
	join       *operator.SymmetricHashJoin
	joinSide   JoinSide
	// fused keeps the block partials of the fused conjunct's range scans
	// (trySlideFused), so a repeated slide reads each block once.
	fused storage.FusedMemo

	lastID    int
	lastTouch time.Duration
	lastLevel int

	// touchBuckets histograms touched base ids at bucketSize granularity
	// (bucket b counts ids in [b·bucketSize, (b+1)·bucketSize)), feeding
	// hot-region detection for cache-to-sample promotion (§2.6).
	touchBuckets []int
	bucketSize   int

	// conv is the in-progress layout conversion after a rotate gesture.
	conv *layout.Conversion

	// live binds the object to its source table when the backing matrix is
	// a live-table snapshot; liveGen tracks the compaction generation the
	// object last rebound to (see live.go).
	live    *storage.Table
	liveGen uint64
}

// ID returns the object identifier.
func (o *Object) ID() int { return o.id }

// View returns the object's view.
func (o *Object) View() *touchos.View { return o.view }

// Matrix returns the backing matrix.
func (o *Object) Matrix() *storage.Matrix { return o.matrix }

// IsColumn reports whether the object is bound to a single column.
func (o *Object) IsColumn() bool { return o.colIdx >= 0 }

// Actions returns the current touch configuration.
func (o *Object) Actions() Actions { return o.actions }

// Groups snapshots the incremental group table (nil when grouping is not
// configured). Its cardinality is the key domain touched so far, not the
// row count — the boundedness tests lean on that.
func (o *Object) Groups() []operator.Group {
	if o.grouper == nil {
		return nil
	}
	return o.grouper.Groups()
}

// SetActions replaces the touch configuration and resets per-query state
// (running aggregates, group tables, optimizer statistics).
func (o *Object) SetActions(a Actions) {
	o.actions = a
	o.agg = operator.NewRunningAgg(a.Agg)
	o.optimizer = NewAdaptiveOptimizer(a.Filters, 64, o.kernel.cfg.AdaptiveOpt)
	for _, f := range a.Filters {
		o.trackerFor(f.Col) // pre-create so evaluations are charged
	}
	o.grouper = nil
	if a.Group != nil && o.matrix.Layout() == storage.ColumnMajor {
		keyCol, errK := o.matrix.Column(a.Group.KeyCol)
		valCol, errV := o.matrix.Column(a.Group.ValCol)
		if errK == nil && errV == nil {
			o.grouper = operator.NewIncrementalGroupBy(keyCol, valCol, a.Group.Agg)
		}
	}
	o.join = nil
	if a.Join != nil {
		o.kernel.wireJoin(o, a.Join)
	}
	o.lastID = -1
}

// Hierarchy exposes the sample hierarchy (column objects; nil for tables).
func (o *Object) Hierarchy() *sample.Hierarchy { return o.hierarchy }

// Rows reports the tuple count of the backing data.
func (o *Object) Rows() int { return o.matrix.NumRows() }

// objectMap builds the touch→tuple translator for the current geometry.
func (o *Object) objectMap() mapping.ObjectMap {
	cols := o.matrix.NumCols()
	if o.IsColumn() {
		cols = 1
	}
	return mapping.ObjectMap{
		Rows:            o.matrix.NumRows(),
		Cols:            cols,
		Granularity:     o.kernel.cfg.Granularity,
		ResolutionPerCm: o.kernel.cfg.ResolutionPerCm,
	}
}

// column returns the bound column of a column object.
func (o *Object) column() (*storage.Column, error) {
	if !o.IsColumn() {
		return nil, fmt.Errorf("core: object %d is a table object", o.id)
	}
	return o.matrix.Column(o.colIdx)
}

// beginSlide resets gesture-tracking state at slide start.
func (o *Object) beginSlide(ev gesture.Event) {
	o.lastID = -1
	o.extrap.Reset()
	o.lastTouch = ev.Time
	o.kernel.counters.Add("gesture.slides", 1)
}

// processTap handles a single tap: reveal one value (columns) or one full
// tuple (tables) — the schema-discovery touch of paper §2.2.
func (o *Object) processTap(ev gesture.Event) {
	om := o.objectMap()
	if o.IsColumn() {
		id, err := om.RowOnView(o.view, ev.Loc)
		if err != nil {
			o.kernel.counters.Add("touch.mapping_errors", 1)
			return
		}
		v, baseID, err := o.hierarchy.ScanAt(id, 0)
		if err != nil {
			return
		}
		o.kernel.emit(Result{Kind: ScanValue, ObjectID: o.id, TupleID: baseID, Value: v})
		return
	}
	row, col, err := om.CellOnView(o.view, ev.Loc)
	if err != nil {
		o.kernel.counters.Add("touch.mapping_errors", 1)
		return
	}
	o.chargeCell(row, col)
	tuple, err := o.matrix.Row(row)
	if err != nil {
		return
	}
	// Reading the remaining attributes of the tuple costs one access per
	// attribute beyond the touched cell.
	for c := 0; c < o.matrix.NumCols(); c++ {
		if c != col {
			o.chargeCell(row, c)
		}
	}
	o.kernel.emit(Result{Kind: TuplePeek, ObjectID: o.id, TupleID: row, Col: col, Tuple: tuple})
}

// processSlideStep handles one delivered slide sample — the unit of query
// processing in dbTouch. A slide step semantically covers every tuple
// between the previous sample and this one, so the step computes that
// span and dispatches it as one unit: aggregates, filters, grouping and
// joins consume the whole span through the storage range kernels, while
// emission stays one result per touch.
func (o *Object) processSlideStep(ev gesture.Event) {
	om := o.objectMap()
	var id, col int
	var err error
	if o.IsColumn() {
		id, err = om.RowOnView(o.view, ev.Loc)
	} else {
		id, col, err = om.CellOnView(o.view, ev.Loc)
	}
	if err != nil {
		o.kernel.counters.Add("touch.mapping_errors", 1)
		return
	}
	if id == o.lastID {
		o.kernel.counters.Add("touch.duplicates", 1)
		return
	}
	interTouch := ev.Time - o.lastTouch
	level := o.chooseLevel(ev, interTouch)
	o.extrap.Observe(id, ev.Time)
	o.setDirection()
	prevID := o.lastID
	o.lastID = id
	o.lastTouch = ev.Time
	o.lastLevel = level
	o.recordTouch(id)

	spanLo, spanHi := spanBounds(prevID, id)

	// Fused fast path: a WHERE whose span feeds only the running
	// aggregate skips the selection vector entirely (one fused
	// filter+aggregate scan). Falls through when positions are needed.
	if o.trySlideFused(id, level, spanLo, spanHi) {
		return
	}

	// WHERE conjuncts gate everything else (paper §2.9: the slide drives
	// the query processing steps). Span execution qualifies every covered
	// tuple: sel holds the ascending qualifying rows; an empty selection
	// means the touch yields no result.
	var sel []int32
	if o.optimizer != nil && o.optimizer.Len() > 0 {
		sel, err = o.optimizer.EvalSpan(o.matrix, spanLo, spanHi, o.colTrackers)
		if err != nil {
			return
		}
		if len(sel) == 0 {
			o.kernel.counters.Add("touch.filtered", 1)
			return
		}
	}

	if o.IsColumn() {
		o.slideColumn(prevID, id, level, sel)
	} else {
		o.slideTable(prevID, id, col, sel)
	}

	if o.grouper != nil {
		o.pushGroupSpan(spanLo, spanHi, sel, id, level)
	}
	if o.join != nil {
		o.pushJoinSpan(spanLo, spanHi, sel, id, level)
	}
}

// trySlideFused handles a filtered aggregate slide through the fused
// filter+aggregate kernels: when the WHERE-qualified span is consumed
// only by the running aggregate — a column object in aggregate mode with
// no group-by, join, or value-order reveal needing the qualifying
// positions — the span is scanned once (filter and aggregate in the same
// pass) instead of materializing a selection vector and re-reading it.
// Multi-conjunct WHEREs evaluate all but the final conjunct normally and
// fuse the last one over the survivors (see AdaptiveOptimizer.FusionPlan
// for when that split is offered). A single conjunct scans the span
// itself, and the object's memo answers the complete blocks an earlier
// span already read. Charging is byte-compatible with the unfused path
// and every sum is exact on every column type, so the emitted stream —
// values, counts, virtual times — is identical to the selection-vector
// path's. It reports whether it handled the touch; eligibility checks
// all run before any charging, so a false return falls through to the
// unfused path with no cost double-counted.
func (o *Object) trySlideFused(id, level, spanLo, spanHi int) bool {
	if !o.IsColumn() || o.grouper != nil || o.join != nil {
		return false
	}
	if o.actions.Mode != ModeAggregate || o.actions.ValueOrder {
		return false
	}
	if o.optimizer == nil || o.optimizer.Len() == 0 || o.agg == nil || !operator.FusableAgg(o.agg.Kind()) {
		return false
	}
	final, prefixLen, ok := o.optimizer.FusionPlan(o.colIdx)
	if !ok {
		return false
	}
	// Filtered touches read base data (chooseLevel), so the span maps
	// 1:1 onto level entries; bail to the generic path if that ever
	// stops holding.
	lvl, err := o.hierarchy.Level(level)
	if err != nil || lvl.Stride != 1 {
		return false
	}
	// The fused scan reads the hierarchy's base column for both the
	// predicate and the aggregate; if the matrix no longer serves that
	// column (a rotate swapped in a converted layout), the generic path
	// owns the fallback semantics.
	if mcol, merr := o.matrix.Column(final.Col); merr != nil || mcol != lvl.Col {
		return false
	}
	if spanLo < 0 {
		spanLo = 0
	}
	if n := lvl.Col.Len(); spanHi > n {
		spanHi = n
	}
	var sel []int32
	if prefixLen > 0 {
		sel, err = o.optimizer.EvalSpanPrefix(o.matrix, spanLo, spanHi, o.colTrackers, prefixLen)
		if err != nil {
			return true // charged like the unfused error path: drop the touch
		}
		if len(sel) == 0 {
			o.optimizer.NoteSpan(spanHi - spanLo)
			o.kernel.counters.Add("touch.filtered", 1)
			return true
		}
	}
	qualified := o.agg.FuseFilter(lvl.Col, spanLo, spanHi, sel, final.Op, final.Operand, o.trackerFor(final.Col), lvl.Tracker, &o.fused)
	o.optimizer.NoteSpan(spanHi - spanLo)
	o.kernel.counters.Add("touch.fused", 1)
	if qualified == 0 {
		o.kernel.counters.Add("touch.filtered", 1)
		return true
	}
	o.kernel.emit(Result{
		Kind: AggregateValue, ObjectID: o.id, TupleID: id,
		Agg: o.agg.Value(), N: o.agg.N(), Level: level,
	})
	return true
}

// spanBounds returns the base-tuple range [lo, hi) a slide step covers:
// (prev, id] sliding down, [id, prev) sliding up, just the touched tuple
// on the first step of a gesture.
func spanBounds(prevID, id int) (int, int) {
	switch {
	case prevID < 0:
		return id, id + 1
	case id > prevID:
		return prevID + 1, id + 1
	default:
		return id, prevID
	}
}

// entrySpan maps a base-tuple slide step onto level entries: the entries
// newly covered since the previous touch — including the touched entry,
// excluding the previously consumed one. At coarse levels consecutive
// touches can land on the same entry; the span is then empty (the touch
// refines nothing at this granularity).
func entrySpan(prevID, id, stride, n int) (from, to int) {
	cur := clampIdx(id/stride, n)
	if prevID < 0 {
		return cur, cur + 1
	}
	prev := clampIdx(prevID/stride, n)
	switch {
	case cur > prev:
		return prev + 1, cur + 1
	case cur < prev:
		return cur, prev
	default:
		return cur, cur
	}
}

func clampIdx(idx, n int) int {
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// slideColumn executes the configured mode against the column hierarchy
// for the slide span ending at base tuple id.
func (o *Object) slideColumn(prevID, id, level int, sel []int32) {
	rows := o.matrix.NumRows()
	switch o.actions.Mode {
	case ModeScan:
		if o.actions.ValueOrder {
			// Value-order slides interpret the touch as a rank, so the
			// span selection cannot be projected onto it; the WHERE gate
			// keeps the reference semantics instead — the touched tuple
			// itself must qualify.
			if sel == nil || selContains(sel, id) {
				o.scanValueOrder(id, level)
			}
			return
		}
		if sel != nil {
			// Under a WHERE restriction the scan reveals the qualifying
			// tuple nearest the finger within the covered span.
			id = nearestSelected(sel, id)
		}
		v, baseID, err := o.hierarchy.ScanAt(id, level)
		if err != nil {
			return
		}
		o.kernel.emit(Result{Kind: ScanValue, ObjectID: o.id, TupleID: baseID, Value: v, Level: level})
	case ModeAggregate:
		o.slideAggregateColumn(prevID, id, level, sel)
	case ModeSummary:
		if o.actions.ValueOrder {
			// Same rank-vs-position mismatch as the scan branch: gate on
			// the touched tuple, not the span selection.
			if sel == nil || selContains(sel, id) {
				o.summaryValueOrder(id, level)
			}
			return
		}
		s := operator.Summarizer{K: o.actions.SummaryK, Kind: o.actions.Agg}
		lo, hi := s.Window(id, rows)
		lvl, err := o.hierarchy.Level(level)
		if err != nil {
			return
		}
		// The window's level entries: lo/stride up to the one holding
		// hi-1, read as one charged span.
		from, to := lo/lvl.Stride, min((hi+lvl.Stride-1)/lvl.Stride, lvl.Col.Len())
		if from >= to {
			return
		}
		lvl.Tracker.AccessRange(from, to)
		var sum storage.ExactSum
		n := lvl.Col.SumRange(from, to, &sum)
		mn, mx, _ := lvl.Col.MinMaxRange(from, to)
		o.kernel.emit(Result{
			Kind: SummaryValue, ObjectID: o.id, TupleID: id,
			WindowLo: lo, WindowHi: hi, N: int64(n), Level: level,
			Agg: summaryValue(o.actions.Agg, sum.Round(), n, mn, mx),
		})
	}
}

// nearestSelected picks the selection entry closest to the touched tuple:
// the touched tuple sits at one end of the span, so it is the first or
// last selected row.
func nearestSelected(sel []int32, id int) int {
	if id <= int(sel[0]) {
		return int(sel[0])
	}
	return int(sel[len(sel)-1])
}

// selContains reports whether the ascending selection contains id.
func selContains(sel []int32, id int) bool {
	i := sort.Search(len(sel), func(i int) bool { return sel[i] >= int32(id) })
	return i < len(sel) && sel[i] == int32(id)
}

// slideAggregateColumn absorbs the covered span into the running
// aggregate and emits its current state — the span version of "running
// aggregate continuously updated" (paper §2.3): every tuple the finger
// swept over contributes, not only the sampled one.
func (o *Object) slideAggregateColumn(prevID, id, level int, sel []int32) {
	lvl, err := o.hierarchy.Level(level)
	if err != nil {
		return
	}
	if sel != nil {
		// Filtered slides run at base level (chooseLevel): absorb the
		// qualifying rows.
		operator.ChargeSelection(lvl.Tracker, sel)
		for _, r := range sel {
			o.agg.Add(lvl.Col.Float(int(r)))
		}
		o.kernel.emit(Result{
			Kind: AggregateValue, ObjectID: o.id, TupleID: id,
			Agg: o.agg.Value(), N: o.agg.N(), Level: level,
		})
		return
	}
	from, to := entrySpan(prevID, id, lvl.Stride, lvl.Col.Len())
	lvl.Tracker.AccessRange(from, to)
	if o.agg.NeedsPerValue() {
		// Variance-family aggregates are order-sensitive: absorb the span
		// value by value over the native slice.
		lvl.Col.AddRangeTo(from, to, o.agg.Add)
	} else {
		o.agg.AddRange(lvl.Col, from, to)
	}
	o.kernel.emit(Result{
		Kind: AggregateValue, ObjectID: o.id, TupleID: clampIdx(id/lvl.Stride, lvl.Col.Len()) * lvl.Stride,
		Agg: o.agg.Value(), N: o.agg.N(), Level: level,
	})
}

// scanValueOrder serves a scan touch in value order via the per-level
// sorted index: the mapped id is interpreted as a rank.
func (o *Object) scanValueOrder(id, level int) {
	lvl, err := o.hierarchy.Level(level)
	if err != nil {
		return
	}
	idx := o.indexes.For(level, lvl.Col, lvl.Tracker)
	rank := id / lvl.Stride
	if rank >= idx.Len() {
		rank = idx.Len() - 1
	}
	v, pos, err := idx.ValueAtRank(rank, lvl.Tracker)
	if err != nil {
		return
	}
	o.kernel.emit(Result{
		Kind: ScanValue, ObjectID: o.id, TupleID: pos * lvl.Stride,
		Value: storage.FloatValue(v), Level: level,
	})
}

// summaryValueOrder aggregates a rank window via the sorted index —
// summaries over value quantiles rather than positions.
func (o *Object) summaryValueOrder(id, level int) {
	lvl, err := o.hierarchy.Level(level)
	if err != nil {
		return
	}
	idx := o.indexes.For(level, lvl.Col, lvl.Tracker)
	rank := id / lvl.Stride
	k := o.actions.SummaryK
	lo, hi := rank-k, rank+k+1
	if lo < 0 {
		lo = 0
	}
	if hi > idx.Len() {
		hi = idx.Len()
	}
	agg := operator.NewRunningAgg(o.actions.Agg)
	idx.AddRankRange(lo, hi, lvl.Tracker, agg.Add)
	if agg.N() == 0 {
		return
	}
	o.kernel.emit(Result{
		Kind: SummaryValue, ObjectID: o.id, TupleID: id,
		WindowLo: lo * lvl.Stride, WindowHi: hi * lvl.Stride,
		Agg: agg.Value(), N: agg.N(), Level: level,
	})
}

// slideTable executes the configured mode against a table object for the
// row span ending at (row, col).
func (o *Object) slideTable(prevRow, row, col int, sel []int32) {
	switch o.actions.Mode {
	case ModeScan:
		if sel != nil {
			row = nearestSelected(sel, row)
		}
		o.chargeCell(row, col)
		v, err := o.matrix.At(row, col)
		if err != nil {
			return
		}
		o.kernel.emit(Result{Kind: ScanValue, ObjectID: o.id, TupleID: row, Col: col, Value: v})
	case ModeAggregate:
		spanLo, spanHi := spanBounds(prevRow, row)
		if sel != nil {
			for _, r := range sel {
				o.chargeCell(int(r), col)
				o.agg.Add(o.matrix.Float(int(r), col))
			}
		} else {
			o.absorbCellSpan(o.agg, spanLo, spanHi, col)
		}
		o.kernel.emit(Result{
			Kind: AggregateValue, ObjectID: o.id, TupleID: row, Col: col,
			Agg: o.agg.Value(), N: o.agg.N(),
		})
	case ModeSummary:
		s := operator.Summarizer{K: o.actions.SummaryK, Kind: o.actions.Agg}
		lo, hi := s.Window(row, o.matrix.NumRows())
		agg := operator.NewRunningAgg(o.actions.Agg)
		o.absorbCellSpan(agg, lo, hi, col)
		if agg.N() == 0 {
			return
		}
		o.kernel.emit(Result{
			Kind: SummaryValue, ObjectID: o.id, TupleID: row, Col: col,
			WindowLo: lo, WindowHi: hi, Agg: agg.Value(), N: agg.N(),
		})
	}
}

// absorbCellSpan feeds cells (lo..hi, col) into agg, charging the strided
// cell range as one unit and, on column-major layouts, absorbing through
// the typed column kernels.
func (o *Object) absorbCellSpan(agg *operator.RunningAgg, lo, hi, col int) {
	if hi > o.matrix.NumRows() {
		hi = o.matrix.NumRows()
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	if o.cellTracker != nil {
		ncols := o.matrix.NumCols()
		o.cellTracker.AccessStrided(lo*ncols+col, (hi-1)*ncols+col+1, ncols)
	}
	if c, err := o.matrix.Column(col); err == nil && !agg.NeedsPerValue() {
		agg.AddRange(c, lo, hi)
		return
	}
	for r := lo; r < hi; r++ {
		agg.Add(o.matrix.Float(r, col))
	}
}

// pushGroupSpan feeds the covered span (or its qualifying selection)
// into the incremental group-by and emits the touched tuple's group when
// the touch absorbed it.
func (o *Object) pushGroupSpan(spanLo, spanHi int, sel []int32, id, level int) {
	kt := o.trackerFor(o.actions.Group.KeyCol)
	vt := o.trackerFor(o.actions.Group.ValCol)
	wasSeen := o.grouper.Seen(id)
	if sel != nil {
		operator.ForEachRun(sel, func(lo, hi int) { o.grouper.PushRange(lo, hi, kt, vt) })
	} else {
		o.grouper.PushRange(spanLo, spanHi, kt, vt)
	}
	if wasSeen || !o.grouper.Seen(id) {
		return
	}
	if key, val, ok := o.grouper.GroupOf(id); ok {
		o.kernel.emit(Result{
			Kind: GroupValue, ObjectID: o.id, TupleID: id,
			GroupKey: key, Agg: val, N: int64(o.grouper.SeenTuples()), Level: level,
		})
	}
}

// pushJoinSpan feeds the covered span (or its qualifying selection) into
// the symmetric join and emits all new matches as one result.
func (o *Object) pushJoinSpan(spanLo, spanHi int, sel []int32, id, level int) {
	tracker := o.trackerFor(maxInt(o.colIdx, 0))
	isLeft := o.joinSide == JoinLeft
	var matches []operator.JoinMatch
	if sel != nil {
		operator.ForEachRun(sel, func(lo, hi int) {
			matches = append(matches, o.join.PushRange(lo, hi, isLeft, tracker)...)
		})
	} else {
		matches = o.join.PushRange(spanLo, spanHi, isLeft, tracker)
	}
	if len(matches) > 0 {
		o.kernel.emit(Result{
			Kind: JoinMatches, ObjectID: o.id, TupleID: id,
			Matches: matches, N: o.join.Matches(), Level: level,
		})
	}
}

// chooseLevel picks the sample level serving this touch from object
// extent, finger speed and inter-touch time, then escalates coarser if the
// estimated window cost would blow the response bound.
func (o *Object) chooseLevel(ev gesture.Event, interTouch time.Duration) int {
	if !o.kernel.cfg.UseSamples || o.hierarchy == nil {
		return 0
	}
	// WHERE filters qualify the touched base tuple; answering from a
	// coarser sample would return a different tuple's value and break
	// the filter contract, so filtered touches read base data.
	if len(o.actions.Filters) > 0 {
		return 0
	}
	speed := math.Hypot(ev.Velocity.X, ev.Velocity.Y)
	level := o.hierarchy.SelectLevel(o.view.LocalSize().H, speed, interTouch)
	// With enough gesture history, the extrapolator's measured base-tuple
	// step is a better gap estimate than the geometric model: it reflects
	// where consecutive touches actually landed (real sensor cadence and
	// coordinate mapping), so the level tracks the observed touch spacing
	// instead of the screen-extent prediction. chooseLevel runs before
	// this touch is Observed, so the state is genuinely anticipatory.
	if o.extrap != nil && o.extrap.Observed() >= 2 {
		if gap := math.Abs(o.extrap.StepSize()); gap >= 1 {
			level = o.hierarchy.SelectLevelForGap(gap)
		}
	}
	if bound := o.kernel.cfg.ResponseBound; bound > 0 && o.actions.Mode == ModeSummary {
		level = o.escalateForBound(level, bound)
	}
	return level
}

// escalateForBound raises the level until the worst-case window cost fits
// the response bound (paper §4: "there should always be a maximum possible
// wait time for a single touch regardless of the query and the data
// sizes").
func (o *Object) escalateForBound(level int, bound time.Duration) int {
	window := 2*o.actions.SummaryK + 1
	// Only the cost parameters are probed, which every level shares:
	// reading level 0 for them leaves the coarser levels unbuilt.
	base, err := o.hierarchy.Level(0)
	if err != nil {
		return level
	}
	params := base.Tracker.Params()
	for level < o.hierarchy.NumLevels()-1 {
		entries := window / (1 << level) // the level's stride
		if entries < 1 {
			entries = 1
		}
		blocks := entries/params.BlockValues + 1
		worst := time.Duration(blocks)*params.ColdLatency + time.Duration(entries)*params.WarmLatency
		if worst <= bound {
			return level
		}
		level++
	}
	return level
}

// chargeCell charges a table-cell read to the cell tracker.
func (o *Object) chargeCell(row, col int) {
	if o.cellTracker != nil {
		o.cellTracker.Access(row*o.matrix.NumCols() + col)
	}
}

// TrackerFor exposes the per-column tracker (benchmark instrumentation).
func (o *Object) TrackerFor(col int) *iomodel.Tracker { return o.trackerFor(col) }

// OptimizerReorders reports how many times the adaptive optimizer changed
// the conjunct evaluation order.
func (o *Object) OptimizerReorders() int {
	if o.optimizer == nil {
		return 0
	}
	return o.optimizer.Reorders()
}

// trackerFor returns (lazily creating) the per-column tracker.
func (o *Object) trackerFor(col int) *iomodel.Tracker {
	if col < 0 || col >= o.matrix.NumCols() {
		return nil
	}
	for len(o.colTrackers) <= col {
		o.colTrackers = append(o.colTrackers, nil)
	}
	if o.colTrackers[col] == nil {
		o.colTrackers[col] = iomodel.New(o.kernel.clock, o.kernel.cfg.IO, o.kernel.newPolicy())
	}
	return o.colTrackers[col]
}

// setDirection forwards the gesture direction to the active trackers so
// gesture-aware eviction can protect trailing blocks.
func (o *Object) setDirection() {
	dir := o.extrap.Direction()
	if o.hierarchy != nil {
		o.hierarchy.SetDirection(dir)
	}
	if o.cellTracker != nil {
		o.cellTracker.SetDirection(dir)
	}
}

// applyZoom resizes the view by the pinch factor, bounded to stay
// touchable (paper §2.5 "Zoom-in/Zoom-out": the object size bounds the
// addressable data; zooming adjusts the bound).
func (o *Object) applyZoom(scale float64) {
	if scale <= 0 {
		return
	}
	frame := o.view.Frame().ScaledAbout(scale)
	const minExtent = 0.5 // half a centimeter stays tappable
	if frame.Size.W < minExtent || frame.Size.H < minExtent {
		return
	}
	// Keep the object touchable: clamp the frame to the screen (a real
	// UI clamps or pans; data off the glass cannot be touched).
	screen := o.kernel.screen.Frame().Size
	if frame.Size.W > screen.W {
		frame.Size.W = screen.W
	}
	if frame.Size.H > screen.H {
		frame.Size.H = screen.H
	}
	if frame.Origin.X < 0 {
		frame.Origin.X = 0
	}
	if frame.Origin.Y < 0 {
		frame.Origin.Y = 0
	}
	if frame.Origin.X+frame.Size.W > screen.W {
		frame.Origin.X = screen.W - frame.Size.W
	}
	if frame.Origin.Y+frame.Size.H > screen.H {
		frame.Origin.Y = screen.H - frame.Size.H
	}
	o.view.SetFrame(frame)
	if scale > 1 {
		o.kernel.counters.Add("gesture.zoom_in", 1)
	} else {
		o.kernel.counters.Add("gesture.zoom_out", 1)
	}
}

// applyRotate handles a completed two-finger rotation: the view turns a
// quarter turn, and multi-column objects start an incremental physical
// layout conversion with a sample-first preview (paper §2.8).
func (o *Object) applyRotate(angle float64) {
	if math.Abs(angle) < math.Pi/4 {
		return // not a committed quarter turn
	}
	turns := touchos.QuarterTurns(1)
	if angle < 0 {
		turns = touchos.QuarterTurns(-1)
	}
	o.view.Rotate(turns)
	o.kernel.counters.Add("gesture.rotations", 1)
	if o.matrix.NumCols() <= 1 || o.conv != nil {
		return
	}
	conv, err := layout.NewConversion(o.matrix, o.kernel.clock, 4096)
	if err != nil {
		return
	}
	// Sample-first: a strided preview sized to the touchable positions so
	// the user can query the new layout immediately.
	positions := o.objectMap().Positions(o.view.LocalSize().H)
	stride := o.matrix.NumRows() / maxInt(positions, 1)
	if stride > 1 {
		if _, err := conv.SampleFirst(stride); err == nil {
			o.kernel.counters.Add("layout.previews", 1)
		}
	}
	o.conv = conv
	o.kernel.counters.Add("layout.conversions_started", 1)
}

// advanceConversion spends idle time on an in-progress layout conversion
// and swaps the matrix in when complete.
func (o *Object) advanceConversion(budget time.Duration) {
	if o.conv == nil {
		return
	}
	if _, err := o.conv.RunFor(budget); err != nil {
		o.conv = nil
		return
	}
	if o.conv.Done() {
		o.matrix = o.conv.Result()
		o.cellTracker = iomodel.New(o.kernel.clock, o.kernel.cfg.IO, o.kernel.newPolicy())
		o.colTrackers = nil
		o.conv = nil
		o.kernel.counters.Add("layout.conversions_done", 1)
	}
}

// Converting reports whether a layout conversion is in progress and its
// progress fraction.
func (o *Object) Converting() (bool, float64) {
	if o.conv == nil {
		return false, 1
	}
	return true, o.conv.Progress()
}

func summaryValue(kind operator.AggKind, sum float64, n int, min, max float64) float64 {
	switch kind {
	case operator.Count:
		return float64(n)
	case operator.Sum:
		return sum
	case operator.Min:
		return min
	case operator.Max:
		return max
	default: // Avg and variance-family default to the mean over samples
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
