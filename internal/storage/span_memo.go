package storage

import "math"

// Block partials for repeated filtered slides (paper §2.6: the kernel
// learns from the gestures it serves). A complete block's fused partial —
// its qualifying count and the part of the aggregate the mode keeps —
// depends only on the column, the conjunct, the mode and the block
// boundaries, so an object that slides over the same column again under
// the same WHERE need not read that block again, whatever the data's
// distribution. A FusedMemo keeps those partials for one object's fused
// conjunct; FilterAggRangeBlocked reads only a span's partial head and
// tail chunks and the blocks the memo has not kept.

// FusedMemo keeps the partials of the complete, block-aligned chunks one
// object's blocked fused scans have read. Its key is the column (identity
// and length), the operator and operand, the mode and the block length; a
// scan under any other key starts it over. The zero value is an empty
// memo. It costs 24 bytes per block of the column once a scan covers a
// complete block, and is not safe for concurrent use.
type FusedMemo struct {
	key   memoKey
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
// and in a the wrapping int64 sum, or the bits of the one extremum the
// mode keeps (first-wins, as the scan folds it), or a float sum as the
// exact pair a+b of doubles.
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

// partsFor returns the memo's partials for a scan under the given key, one
// per complete block of c, starting the memo over when the key changed.
// A nil memo has none.
func (m *FusedMemo) partsFor(c *Column, op RangeOp, operand Value, mode FusedMode, blockLen int) []blockPartial {
	if m == nil {
		return nil
	}
	k := memoKey{col: c, rows: c.Len(), op: op, operand: operand, mode: mode, blockLen: blockLen}
	if m.key != k {
		m.key = k
		nb := k.rows / blockLen
		if cap(m.parts) >= nb {
			m.parts = m.parts[:nb]
			clear(m.parts)
		} else {
			m.parts = make([]blockPartial, nb)
		}
	}
	return m.parts
}

// memoChunk runs one complete block [lo, hi) into total from its partial,
// reading the block and keeping its partial first when it has none yet,
// and returns how many of its values qualified. A refused block is read
// as fusedChunk reads it.
func (c *Column) memoChunk(bp *blockPartial, pp *preparedPred, lo, hi int, mode FusedMode, total *FilterAgg, sc *floatScan) int {
	float := c.typ == Float64
	switch bp.state {
	case partRefused:
		return c.fusedChunk(pp, lo, hi, mode, total, sc)
	case partUnread:
		b := emptyFilterAgg()
		c.fusedChunk(pp, lo, hi, mode, &b, sc)
		if !bp.keep(&b, mode, float) {
			total.N += b.N
			total.Partial.Merge(&b.Partial)
			return b.N
		}
	}
	return bp.apply(mode, float, total)
}

// keep records the block scan b as the partial, or marks the partial
// refused and reports false when a float sum is not exactly hi+lo.
func (bp *blockPartial) keep(b *FilterAgg, mode FusedMode, float bool) bool {
	bp.n = int32(b.N)
	switch {
	case mode == FusedSum && float:
		hi, lo, ok := b.Partial.pair()
		if !ok {
			bp.state = partRefused
			return false
		}
		bp.a, bp.b = math.Float64bits(hi), math.Float64bits(lo)
	case mode == FusedSum:
		bp.a = uint64(b.isum)
	case mode == FusedMin:
		bp.a = math.Float64bits(b.Min)
	case mode == FusedMax:
		bp.a = math.Float64bits(b.Max)
	}
	bp.state = partKept
	return true
}

// apply folds the kept partial into total as the block's scan would have
// — a tie between extrema keeps the earlier block's — and returns its
// qualifying count.
func (bp *blockPartial) apply(mode FusedMode, float bool, total *FilterAgg) int {
	ca := emptyChunk()
	ca.n = int(bp.n)
	switch {
	case mode == FusedSum && float:
		total.Partial.Add(math.Float64frombits(bp.a))
		total.Partial.Add(math.Float64frombits(bp.b))
	case mode == FusedSum:
		ca.isum = int64(bp.a)
	case mode == FusedMin:
		ca.min = math.Float64frombits(bp.a)
	case mode == FusedMax:
		ca.max = math.Float64frombits(bp.a)
	}
	total.absorb(ca)
	return ca.n
}
