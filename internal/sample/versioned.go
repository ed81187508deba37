package sample

import (
	"fmt"
	"sync"

	"dbtouch/internal/storage"
)

// verKey identifies one published version of a live column: the
// compaction generation plus the row count. Within a generation rows
// only grow, so (gen, rows) names exactly one snapshot prefix and the
// levels for it are a pure function of the key — which is what makes the
// cache below safe to share across sessions.
type verKey struct {
	gen  uint64
	rows int
}

// Versioned incrementally maintains the sample levels of one live column
// across append epochs: each append extends every level's column with
// the base values it newly samples instead of rebuilding, and
// ForSnapshot carves an immutable Shared out of the growing columns for
// any published (gen, rows) version. A Shared served from the chain is
// therefore indistinguishable from one built from scratch over the same
// frozen prefix.
type Versioned struct {
	mu        sync.Mutex
	maxLevels int
	gen       uint64
	baseLen   int
	// levels[i] holds level i+1's entries (stride 2^(i+1)) for the first
	// baseLen base values; level 0 is the base column itself.
	levels []*storage.Column
	cache  map[verKey]*Shared
}

// NewVersioned builds an empty chain with the given depth bound. The
// second argument is ignored: levels keep no per-block metadata, so
// chains need no block size.
func NewVersioned(maxLevels, _ int) *Versioned {
	return &Versioned{maxLevels: maxLevels, cache: make(map[verKey]*Shared)}
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
		// A pin from before a compaction: the levels have been rebased,
		// so rebuild this one version from scratch (rare — only sessions
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
		// Compaction rebased row positions; restart the levels.
		v.gen = gen
		v.baseLen = 0
		v.levels = nil
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

// extendLocked grows the level columns to cover rows base values,
// reading new values through base (which shares the table's backing
// arrays, so any same-generation snapshot view of length >= rows
// serves). A level that appears as the column grows starts empty and
// fills from the base like the rest.
func (v *Versioned) extendLocked(base *storage.Column, rows int) {
	for li := len(v.levels) + 1; li <= levelsFor(rows, v.maxLevels); li++ {
		v.levels = append(v.levels, base.EmptyLike())
	}
	for i, col := range v.levels {
		stride := 2 << i
		levelLen := ceilDiv(rows, stride)
		col.Grow(levelLen - col.Len())
		for k := col.Len(); k < levelLen; k++ {
			col.AppendAt(base, k*stride)
		}
	}
	v.baseLen = rows
}

// buildLocked assembles the immutable Shared for rows base values: level
// 0 is base, and each level above is a prefix view of its growing
// column. A version is built after every append a reader sees, so each
// kind of part is allocated once for all levels, not once per level.
func (v *Versioned) buildLocked(base *storage.Column, rows int) (*Shared, error) {
	top := levelsFor(rows, v.maxLevels)
	levels := make([]sharedLevel, top+1)
	cols := make([]storage.Column, top) // views of levels 1..top
	s := &Shared{levels: make([]*sharedLevel, top+1)}
	for li := range levels {
		sl := &levels[li]
		sl.stride, sl.col = 1<<li, base
		if li > 0 {
			sl.col = &cols[li-1]
			if err := v.levels[li-1].PrefixInto(sl.col, ceilDiv(rows, sl.stride)); err != nil {
				return nil, err
			}
		}
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
