package operator

import (
	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// Fusion dispatch: when a WHERE-restricted slide span is consumed only by
// a running aggregate — no group-by, join, scan reveal, or promotion
// needs the qualifying positions — the filter and the aggregate fuse into
// one scan through the storage blocked fused scans
// (Column.FilterAggRangeBlocked / FilterAggSelBlocked, in the FusedMode
// the aggregate kind needs) instead of materializing a selection vector
// and re-reading it.
//
// Charging stays byte-compatible with the unfused pipeline (EvalRange,
// then ChargeSelection, then per-row absorption): the predicate column's
// tracker is charged for every evaluated row exactly as EvalRange
// charges, and the value tracker is charged per qualifying value block by
// block — the fused scan is chunked at the cost model's block size and
// appends how many values qualified inside each block to the aggregate's
// counts buffer, which one Tracker.AccessCounts call charges after the
// scan: the per-block counts ChargeSelection derives from a materialized
// selection, charged in the same order.
//
// The aggregate matches per-row absorption bit for bit on every column
// type: the scan adds the exact sum of its qualifiers straight into the
// running exact sum, so no kind is left behind on the selection-vector
// path for ordering reasons, and a step rounds nothing — the sum is
// rounded once, when the aggregate is read.
//
// A repeated slide over the same column under the same conjunct is
// answered from the object's storage.FusedMemo: it keeps the lowered
// predicate and every complete block's partial, so a warm step reads
// only its ragged head and tail chunks and folds runs of kept blocks.

// FuseFilter evaluates one WHERE conjunct over col fused with the
// absorption of the same column's qualifying values into a — what a
// filtered aggregate slide step runs. With sel == nil the conjunct covers
// the base span [lo, hi); otherwise it refines the surviving selection
// sel of earlier conjuncts (the FilterSel-fused form) and lo/hi are
// ignored. a ends up exactly where an Add per qualifying row would have
// left the state its kind reads — the count, and the sum or the one
// extremum (the other extremum and the Welford state are not maintained:
// see FusableAgg). It returns how many values qualified. Trackers are
// charged as FuseFilterAgg documents. memo, which may be nil, keeps the
// block partials of the range form (sel == nil), and the predicate
// lowered for them, for the next span over col under the same conjunct;
// the selection form does not use it.
func (a *RunningAgg) FuseFilter(col *storage.Column, lo, hi int, sel []int32, op CmpOp, operand storage.Value, predTracker, valTracker *iomodel.Tracker, memo *storage.FusedMemo) int {
	var fa storage.FilterAgg
	fa, a.counts = fuseFilterAgg(col, lo, hi, sel, op, operand, predTracker, valTracker, a.kind, memo, &a.sum, a.counts[:0])
	a.n += int64(fa.N)
	a.extend(fa.Min, fa.Max)
	return fa.N
}

// FuseFilterAgg is the scan behind RunningAgg.FuseFilter on its own: the
// span's count and what kind reads of its sum and extrema, for a caller
// that absorbs them itself. kind selects the aggregate-specialized
// kernel, which maintains only what the kind reads: COUNT the count,
// SUM/AVG count and sum (extrema come back ±Inf), MIN count and minimum,
// MAX count and maximum (sum comes back 0, the other extremum ±Inf). The
// scan adds its exact sum into a sum of FuseFilterAgg's own, which it
// rounds once into Sum — the one place a fused sum is rounded outside
// RunningAgg.Value. It serves the FusableAgg kinds; any other kind gets
// the count alone.
//
// predTracker is charged for every evaluated row — AccessRange over the
// span, or ChargeSelection over the prior selection — exactly as
// Predicate.EvalRange charges. valTracker is then charged one read per
// qualifying value, placed in the block that holds it, exactly as
// ChargeSelection over the materialized selection would. Either tracker
// may be nil to skip its accounting. It keeps no block partials: every
// span is read whole. Its per-block counts live on its stack, so a span
// of up to 256 blocks allocates nothing.
func FuseFilterAgg(col *storage.Column, lo, hi int, sel []int32, op CmpOp, operand storage.Value, predTracker, valTracker *iomodel.Tracker, kind AggKind) storage.FilterAgg {
	var counts [256]int32
	var sum storage.ExactSum
	fa, _ := fuseFilterAgg(col, lo, hi, sel, op, operand, predTracker, valTracker, kind, nil, &sum, counts[:0])
	if fusedModeFor(kind) == storage.FusedSum {
		fa.Sum = sum.Round()
	}
	return fa
}

// fuseFilterAgg is FuseFilterAgg with the range form's block partials
// kept in memo (nil for none), the exact sum added into sum rather than
// rounded, and the per-block qualifying counts the value tracker is
// charged with appended to counts, which it returns.
func fuseFilterAgg(col *storage.Column, lo, hi int, sel []int32, op CmpOp, operand storage.Value, predTracker, valTracker *iomodel.Tracker, kind AggKind, memo *storage.FusedMemo, sum *storage.ExactSum, counts []int32) (storage.FilterAgg, []int32) {
	rop := op.rangeOp()
	mode := fusedModeFor(kind)
	var fa storage.FilterAgg
	var b0 int // the block counts[0] is charged against
	if sel == nil {
		if lo < 0 {
			lo = 0
		}
		if n := col.Len(); hi > n {
			hi = n
		}
		if predTracker != nil {
			predTracker.AccessRange(lo, hi)
		}
		bl := chunkSize(valTracker, hi-lo)
		fa, counts = col.FilterAggRangeBlocked(lo, hi, bl, rop, operand, mode, memo, sum, counts)
		b0 = lo / bl
	} else {
		ChargeSelection(predTracker, sel)
		bl := chunkSize(valTracker, col.Len())
		fa, counts = col.FilterAggSelBlocked(sel, bl, rop, operand, mode, sum, counts)
		if len(sel) > 0 {
			b0 = int(sel[0]) / bl
		}
	}
	if valTracker != nil {
		valTracker.AccessCounts(b0, counts)
	}
	return fa, counts
}

// fusedModeFor maps an aggregate kind to what the fused scan maintains.
func fusedModeFor(kind AggKind) storage.FusedMode {
	switch kind {
	case Sum, Avg:
		return storage.FusedSum
	case Min:
		return storage.FusedMin
	case Max:
		return storage.FusedMax
	default:
		return storage.FusedCount
	}
}

// chunkSize picks the scan chunk width: the tracker's cost-model block
// size, or the whole span when no tracker charges the scan.
func chunkSize(tracker *iomodel.Tracker, span int) int {
	if tracker == nil {
		if span < 1 {
			return 1
		}
		return span
	}
	return tracker.Params().BlockValues
}
