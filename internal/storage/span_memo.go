package storage

import "math"

// Block partials for repeated filtered slides (paper §2.6: the kernel
// learns from the gestures it serves). A complete block's fused partial —
// its qualifying count and the part of the aggregate the mode keeps —
// depends only on the column, the conjunct, the mode and the block
// boundaries, so an object that slides over the same column again under
// the same WHERE need not read that block again, whatever the data's
// distribution. A FusedMemo keeps those partials for one object's fused
// conjunct, and the predicate lowered for it; FilterAggRangeBlocked reads
// only a span's partial head and tail chunks and the blocks the memo has
// not kept, and folds each run of kept blocks in one loop (foldKept), so
// a warm step costs the run's partials, not a call per block.

// FusedMemo keeps the partials of the complete, block-aligned chunks one
// object's blocked fused scans have read, and the predicate lowered for
// them. Its key is the column (identity and length), the operator and
// operand, the mode and the block length; a scan under any other key
// lowers the predicate again and starts the partials over. The zero
// value is an empty memo. It costs 24 bytes per block of the column once
// a scan covers a complete block, and is not safe for concurrent use.
type FusedMemo struct {
	key   memoKey
	pp    preparedPred
	parts []blockPartial
}

// memoKey is what a block partial depends on.
type memoKey struct {
	col      *Column
	rows     int
	op       RangeOp
	operand  Value
	mode     FusedMode
	blockLen int
}

// blockPartial is one complete block's partial: the qualifying count,
// and in a the wrapping int64 sum (b unused), or the bits of the one
// extremum the mode keeps (first-wins, as the scan folds it), or a float
// sum as the exact pair a+b of doubles. keepBlock writes it and foldKept
// reads it.
type blockPartial struct {
	a, b  uint64
	n     int32
	state uint8
}

// Block partial states; the zero value is a block not read yet.
const (
	partUnread uint8 = iota
	partKept
	// partRefused is a float sum that two doubles cannot hold exactly,
	// or that saw a NaN or an infinity: the block is read on every scan.
	partRefused
)

// prepare returns the memo's lowered predicate and its partials, one per
// complete block of c, for a scan under the given key. A changed key
// lowers the predicate again and starts the partials over; a string
// column's predicate is lowered again, partials kept, when its
// dictionary has grown past the pass table.
func (m *FusedMemo) prepare(c *Column, op RangeOp, operand Value, mode FusedMode, blockLen int) (*preparedPred, []blockPartial) {
	k := memoKey{col: c, rows: c.Len(), op: op, operand: operand, mode: mode, blockLen: blockLen}
	switch {
	case m.key != k:
		m.key = k
		m.pp = c.preparePred(op, operand)
		nb := k.rows / blockLen
		if cap(m.parts) >= nb {
			m.parts = m.parts[:nb]
			clear(m.parts)
		} else {
			m.parts = make([]blockPartial, nb)
		}
	case c.typ == String && len(m.pp.pass) < c.dict.Len():
		m.pp = c.preparePred(op, operand)
	}
	return &m.pp, m.parts
}

// keepBlock reads the complete block [lo, hi) and keeps its partial in
// bp. A float sum two doubles cannot hold exactly is refused instead:
// keepBlock then folds what it read into total and reports false.
func (c *Column) keepBlock(bp *blockPartial, pp *preparedPred, lo, hi int, mode FusedMode, total *fusedAcc, sc *floatScan) bool {
	var sum ExactSum
	blk := newFusedAcc(&sum)
	bp.n = int32(c.fusedChunk(pp, lo, hi, mode, &blk, sc))
	switch float := c.typ == Float64; {
	case mode == FusedSum && float:
		h, l, ok := sum.pair()
		if !ok {
			bp.state = partRefused
			total.N += blk.N
			total.sum.Merge(&sum)
			return false
		}
		bp.a, bp.b = math.Float64bits(h), math.Float64bits(l)
	case mode == FusedSum:
		bp.a = uint64(blk.isum)
	case mode == FusedMin:
		bp.a = math.Float64bits(blk.Min)
	case mode == FusedMax:
		bp.a = math.Float64bits(blk.Max)
	}
	bp.state = partKept
	return true
}

// foldKept folds the run of kept partials at the front of parts into a,
// in block order, and appends each block's count to counts; it returns
// the run's length and the extended counts. Each mode folds in one loop.
// A tie between extrema keeps the earlier block's, as absorb does, and a
// float sum adds its two doubles.
func (a *fusedAcc) foldKept(parts []blockPartial, mode FusedMode, float bool, counts []int32) (int, []int32) {
	i, n := 0, 0
	switch {
	case mode == FusedSum && float:
		for ; i < len(parts) && parts[i].state == partKept; i++ {
			bp := &parts[i]
			a.sum.Add(math.Float64frombits(bp.a))
			a.sum.Add(math.Float64frombits(bp.b))
			n += int(bp.n)
			counts = append(counts, bp.n)
		}
	case mode == FusedSum:
		i, n, counts = a.foldKeptIntSums(parts, counts)
	case mode == FusedMin:
		mn := a.Min
		for ; i < len(parts) && parts[i].state == partKept; i++ {
			bp := &parts[i]
			if v := math.Float64frombits(bp.a); v < mn {
				mn = v
			}
			n += int(bp.n)
			counts = append(counts, bp.n)
		}
		a.Min = mn
	case mode == FusedMax:
		mx := a.Max
		for ; i < len(parts) && parts[i].state == partKept; i++ {
			bp := &parts[i]
			if v := math.Float64frombits(bp.a); v > mx {
				mx = v
			}
			n += int(bp.n)
			counts = append(counts, bp.n)
		}
		a.Max = mx
	default: // FusedCount
		for ; i < len(parts) && parts[i].state == partKept; i++ {
			n += int(parts[i].n)
			counts = append(counts, parts[i].n)
		}
	}
	a.N += n
	return i, counts
}

// foldKeptIntSums is foldKept for an integer-backed SUM, and the one
// reader of a kept integer sum: the wrapping int64 sum in a, b unused.
func (a *fusedAcc) foldKeptIntSums(parts []blockPartial, counts []int32) (int, int, []int32) {
	i, n, isum := 0, 0, a.isum
	for ; i < len(parts) && parts[i].state == partKept; i++ {
		bp := &parts[i]
		isum += int64(bp.a)
		n += int(bp.n)
		counts = append(counts, bp.n)
	}
	a.isum = isum
	return i, n, counts
}
