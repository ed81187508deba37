package iomodel

import (
	"iter"
	"time"
)

// warmPageLen is how many block slots one WarmSet page holds: 512 slots
// of 8 bytes, so a page is 4 KiB and covers 512 blocks (half a million
// values at the default 1 024-value block).
const (
	warmPageBits = 9
	warmPageLen  = 1 << warmPageBits
)

// warmPage is one run of warmPageLen consecutive blocks. A slot holds 0
// while its block is cold and lastUse+1 while it is warm.
type warmPage struct {
	slots [warmPageLen]time.Duration
	warm  int // non-zero slots
}

// WarmSet is a tracker's warm blocks and each one's last access time,
// indexed by block number: charging a warm block is a slot update, with
// no hashing and no allocation. Pages are allocated the first time one of
// their blocks warms and kept until the set is dropped, so a tap far down
// a huge column allocates one page and a full sweep of a 4M-value column
// at the default block size eight (32 KiB). Negative block numbers — a
// prefetch extrapolated past the start of the data reaches them — live in
// a mirrored page directory. Last-use times are virtual times, never
// negative.
type WarmSet struct {
	pos []*warmPage // block b >= 0 in pos[b>>warmPageBits]
	neg []*warmPage // block b < 0 in neg[(-b-1)>>warmPageBits]
	n   int
}

// Len reports how many blocks are warm.
func (w *WarmSet) Len() int { return w.n }

// slot returns block b's slot, allocating its page when alloc is set;
// without alloc it returns nil for a block whose page was never touched.
func (w *WarmSet) slot(b int, alloc bool) (*time.Duration, *warmPage) {
	dir := &w.pos
	if b < 0 {
		dir, b = &w.neg, -b-1
	}
	p := b >> warmPageBits
	if p >= len(*dir) {
		if !alloc {
			return nil, nil
		}
		*dir = append(*dir, make([]*warmPage, p+1-len(*dir))...)
	}
	pg := (*dir)[p]
	if pg == nil {
		if !alloc {
			return nil, nil
		}
		pg = new(warmPage)
		(*dir)[p] = pg
	}
	return &pg.slots[b&(warmPageLen-1)], pg
}

// LastUse reports block b's last access time and whether it is warm.
func (w *WarmSet) LastUse(b int) (time.Duration, bool) {
	if s, _ := w.slot(b, false); s != nil && *s != 0 {
		return *s - 1, true
	}
	return 0, false
}

// hotSlot returns the slot of block b >= 0 on an allocated page — the
// charging hot path, small enough to inline — and a cold slot otherwise.
func (w *WarmSet) hotSlot(b int) *time.Duration {
	if p := uint(b) >> warmPageBits; p < uint(len(w.pos)) && w.pos[p] != nil {
		return &w.pos[p].slots[b&(warmPageLen-1)]
	}
	return &noSlot
}

// noSlot is hotSlot's answer off the hot path: always 0, never written.
var noSlot time.Duration

// touch moves a warm block's last use to now and reports whether b was
// warm; a cold block is left cold.
func (w *WarmSet) touch(b int, now time.Duration) bool {
	s, _ := w.slot(b, false)
	if s == nil || *s == 0 {
		return false
	}
	*s = now + 1
	return true
}

// Set marks block b warm with last use lastUse (>= 0).
func (w *WarmSet) Set(b int, lastUse time.Duration) {
	s, pg := w.slot(b, true)
	if *s == 0 {
		w.n++
		pg.warm++
	}
	*s = lastUse + 1
}

// drop makes block b cold.
func (w *WarmSet) drop(b int) {
	if s, pg := w.slot(b, false); s != nil && *s != 0 {
		*s = 0
		w.n--
		pg.warm--
	}
}

// All yields the warm blocks and their last-use times in ascending block
// order — the order eviction policies scan them in.
func (w *WarmSet) All() iter.Seq2[int, time.Duration] {
	return func(yield func(int, time.Duration) bool) {
		for p := len(w.neg) - 1; p >= 0; p-- {
			pg := w.neg[p]
			if pg == nil || pg.warm == 0 {
				continue
			}
			for i := warmPageLen - 1; i >= 0; i-- {
				if s := pg.slots[i]; s != 0 && !yield(-(p<<warmPageBits+i)-1, s-1) {
					return
				}
			}
		}
		for p, pg := range w.pos {
			if pg == nil || pg.warm == 0 {
				continue
			}
			for i, s := range pg.slots {
				if s != 0 && !yield(p<<warmPageBits+i, s-1) {
					return
				}
			}
		}
	}
}

// clear makes every block cold, keeping the pages for reuse.
func (w *WarmSet) clear() {
	for _, dir := range [][]*warmPage{w.pos, w.neg} {
		for _, pg := range dir {
			if pg != nil {
				*pg = warmPage{}
			}
		}
	}
	w.n = 0
}
