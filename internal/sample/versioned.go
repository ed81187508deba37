package sample

import (
	"fmt"
	"sync"

	"dbtouch/internal/storage"
)

// verKey identifies one published version of a live column: the
// compaction generation plus the row count. Within a generation rows
// only grow, so (gen, rows) names exactly one snapshot prefix and the
// statistics for it are a pure function of the key — which is what makes
// the cache below safe to share across sessions.
type verKey struct {
	gen  uint64
	rows int
}

// Versioned incrementally maintains the sample hierarchy of one live
// column across append epochs: each append extends every level's tail
// (levelTail.extend, the builder a static level runs once) instead of
// rebuilding, and ForSnapshot carves an immutable Shared out of the tails
// for any published (gen, rows) version. A Shared served from the chain
// is therefore indistinguishable from one built from scratch over the
// same frozen prefix.
type Versioned struct {
	mu        sync.Mutex
	maxLevels int
	blockLen  int
	gen       uint64
	baseLen   int
	tails     []*levelTail
	cache     map[verKey]*Shared
}

// NewVersioned builds an empty chain with the given depth bound and
// zone-map block size (values per block; <=0 selects defaultBlockLen).
func NewVersioned(maxLevels, blockLen int) *Versioned {
	if blockLen <= 0 {
		blockLen = defaultBlockLen
	}
	return &Versioned{maxLevels: maxLevels, blockLen: blockLen, cache: make(map[verKey]*Shared)}
}

// ForSnapshot returns the Shared hierarchy for one published version of
// the column. base must be the snapshot's own column view (its pointer
// becomes level 0, preserving the matrix-column identity the fused slide
// path checks) and gen the snapshot's compaction generation. Results are
// cached per version; concurrent sessions pinning the same version share
// one Shared.
func (v *Versioned) ForSnapshot(gen uint64, base *storage.Column) (*Shared, error) {
	rows := base.Len()
	if rows == 0 {
		return nil, fmt.Errorf("sample: empty live column %q", base.Name())
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	key := verKey{gen: gen, rows: rows}
	if s, ok := v.cache[key]; ok {
		return s, nil
	}
	if gen < v.gen {
		// A pin from before a compaction: the tails have been rebased, so
		// rebuild this one version from scratch (rare — only sessions
		// straddling a compaction pay it, once, and the result is cached
		// for the other sessions pinned to the same version).
		s, err := BuildShared(base, v.maxLevels)
		if err != nil {
			return nil, err
		}
		v.cache[key] = s
		return s, nil
	}
	if gen > v.gen {
		// Compaction rebased row positions; restart the tails.
		v.gen = gen
		v.baseLen = 0
		v.tails = nil
	}
	if rows > v.baseLen {
		v.extendLocked(base, rows)
	}
	s, err := v.buildLocked(base, rows)
	if err != nil {
		return nil, err
	}
	v.cache[key] = s
	return s, nil
}

// extendLocked advances the tails to cover rows base values, reading new
// values through base (which shares the table's backing arrays, so any
// same-generation snapshot view of length >= rows serves).
func (v *Versioned) extendLocked(base *storage.Column, rows int) {
	for li, top := len(v.tails), levelsFor(rows, v.maxLevels); li <= top; li++ {
		t := &levelTail{stride: 1 << li}
		if li > 0 {
			t.col = base.EmptyLike()
		}
		v.tails = append(v.tails, t)
	}
	for _, t := range v.tails {
		levelLen := ceilDiv(rows, t.stride)
		col := base
		if t.col != nil {
			col = t.col
			col.Grow(levelLen - col.Len())
			for k := col.Len(); k < levelLen; k++ {
				col.AppendAt(base, k*t.stride)
			}
		}
		t.extend(col, levelLen, v.blockLen)
	}
	v.baseLen = rows
}

// buildLocked assembles the immutable Shared for rows base values. The
// sharedLevels are pre-seeded with the chain's statistics (their
// single-flight build is consumed up front), so attached sessions never
// trigger a from-scratch stats build. A version is built after every
// append a reader sees, so each kind of part is allocated once for all
// levels, not once per level.
func (v *Versioned) buildLocked(base *storage.Column, rows int) (*Shared, error) {
	top := levelsFor(rows, v.maxLevels)
	levels := make([]sharedLevel, top+1)
	stats := make([]spanStats, top+1)
	cols := make([]storage.Column, top) // views of levels 1..top
	s := &Shared{levels: make([]*sharedLevel, top+1)}
	for li := range levels {
		t, sl := v.tails[li], &levels[li]
		levelLen := ceilDiv(rows, t.stride)
		sl.stride, sl.col = t.stride, base
		if li > 0 {
			sl.col = &cols[li-1]
			if err := t.col.PrefixInto(sl.col, levelLen); err != nil {
				return nil, err
			}
		}
		t.statsView(&stats[li], levelLen, v.blockLen)
		sl.span = &stats[li]
		sl.once.Do(func() {})
		s.levels[li] = sl
	}
	return s, nil
}

// prune drops cached versions not in keep (called by the live store when
// pins are released; correctness never depends on the cache, only reuse).
func (v *Versioned) prune(keep map[verKey]bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k := range v.cache {
		if !keep[k] {
			delete(v.cache, k)
		}
	}
}

// cachedVersions reports the number of cached Shared versions (test and
// ops visibility).
func (v *Versioned) cachedVersions() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.cache)
}
