package core

import (
	"fmt"
	"sort"
	"time"

	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// HotRegion describes a heavily revisited tuple range of a column object.
type HotRegion struct {
	// Lo and Hi bound the base-tuple range [Lo, Hi).
	Lo, Hi int
	// Touches is the access count that made the region hot.
	Touches int
}

// maxTouchBuckets caps an object's touch histogram. A live table can grow
// far past the row count bucketSize was chosen for at the first touch, so
// the histogram coarsens (foldTouchBuckets) instead of growing with it.
const maxTouchBuckets = 1024

// recordTouch histograms the touched base id: 512 buckets over the rows
// at the first touch, at most maxTouchBuckets ever.
func (o *Object) recordTouch(id int) {
	if o.touchBuckets == nil {
		o.touchBuckets = make([]int, 0, maxTouchBuckets)
		o.bucketSize = max(o.matrix.NumRows()/512, 1)
	}
	b := id / o.bucketSize
	for b >= maxTouchBuckets {
		o.foldTouchBuckets()
		b = id / o.bucketSize
	}
	if b >= len(o.touchBuckets) {
		o.touchBuckets = o.touchBuckets[:b+1]
	}
	o.touchBuckets[b]++
}

// foldTouchBuckets halves the histogram's resolution: adjacent bucket
// pairs merge and bucketSize doubles, so bucket b keeps covering
// [b·bucketSize, (b+1)·bucketSize).
func (o *Object) foldTouchBuckets() {
	h := o.touchBuckets
	n := (len(h) + 1) / 2
	for i := 0; i < n; i++ {
		c := h[2*i]
		if 2*i+1 < len(h) {
			c += h[2*i+1]
		}
		h[i] = c
	}
	clear(h[n:])
	o.touchBuckets = h[:n]
	o.bucketSize *= 2
}

// HotRegions reports contiguous base-tuple ranges the user has revisited
// at least minTouches times per bucket, hottest first — the kernel
// "observing the gesture patterns" (paper §2.6) to decide what deserves
// its own materialized copy. Adjacent hot buckets merge into one region.
func (o *Object) HotRegions(minTouches int) []HotRegion {
	if minTouches <= 0 {
		minTouches = 2
	}
	rows := o.matrix.NumRows()
	var out []HotRegion
	for b, touches := range o.touchBuckets {
		if touches < minTouches {
			continue
		}
		lo := b * o.bucketSize
		hi := min((b+1)*o.bucketSize, rows)
		if n := len(out); n > 0 && lo <= out[n-1].Hi+o.bucketSize {
			out[n-1].Hi = hi
			out[n-1].Touches += touches
			continue
		}
		out = append(out, HotRegion{Lo: lo, Hi: hi, Touches: touches})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Touches > out[j].Touches })
	return out
}

// PromoteHotRegion materializes the hottest revisited region of a column
// object as its own data object with the given frame — the paper's §2.6
// "caching may be used to create a new copy (sample) of the data which
// will allow dbTouch to answer future queries requesting data at a
// similar granularity". The new object has its own full sample hierarchy
// over just the region, so slides over it run at region granularity.
func (k *Kernel) PromoteHotRegion(o *Object, frame touchos.Rect) (*Object, error) {
	if !o.IsColumn() {
		return nil, fmt.Errorf("core: hot-region promotion requires a column object")
	}
	regions := o.HotRegions(2)
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: object %d has no hot regions yet", o.id)
	}
	r := regions[0]
	col, err := o.hierarchy.Promote(r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s[%d:%d]", o.view.Name(), r.Lo, r.Hi)
	m, err := storage.NewMatrix(name, col)
	if err != nil {
		return nil, err
	}
	// Copying the region costs one pass over it. The promoted table is
	// session-derived: under shared storage it stays private to this
	// session instead of entering the cross-session catalog.
	k.clock.Advance(k.cfg.IO.WarmLatency * time.Duration(2*(r.Hi-r.Lo)))
	k.registerDerived(m)
	k.counters.Add("cache.promotions", 1)
	promoted, err := k.CreateColumnObject(m, 0, frame)
	if err != nil {
		return nil, err
	}
	promoted.SetActions(o.actions)
	return promoted, nil
}
