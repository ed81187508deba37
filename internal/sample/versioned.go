package sample

import (
	"fmt"
	"math"
	"slices"
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

// levelTail is the append-only accumulator for one sample level of a
// versioned chain. Every array grows strictly at the end as the table
// grows, so a published Shared can expose capped prefix views of these
// arrays and stay immutable while the chain keeps extending.
type levelTail struct {
	// stride is the base-tuple distance between entries (2^level).
	stride int
	// col holds the level's sample values (nil for level 0, whose values
	// are the base column itself).
	col *storage.Column
	// iprefix/prefix mirror spanStats: exact int64 prefix sums for
	// integer-backed columns, left-to-right sums of the finite values
	// otherwise. Extending by one value appends exactly the term a
	// from-scratch build would have added at that index, so any prefix
	// view of these arrays is bit-identical to a frozen single-pass build.
	iprefix []int64
	prefix  []float64
	// blockMin/blockMax (and, for floats, blockNF) hold zone-map entries
	// for COMPLETE blocks only. SpanEntries reads them for interior
	// blocks exclusively (head and tail partial blocks scan natively),
	// and the interior block index is always < floor(n/blockLen), so
	// complete blocks suffice; a block is computed once, when it
	// completes, and never changes.
	blockMin, blockMax []float64
	blockNF            []storage.NonFinite
	// firstNF is the index of the first NaN or infinite value appended
	// (math.MaxInt while there is none): a view of n entries holds one
	// iff firstNF < n.
	firstNF int
}

// Versioned incrementally maintains the sample hierarchy of one live
// column across append epochs: each extension appends to level tails and
// prefix sums instead of rebuilding, and ForSnapshot carves an immutable
// Shared out of the tails for any published (gen, rows) version. The
// prefix and block-count contracts of spanStats are preserved, so a
// Shared served from the chain is indistinguishable from one built from
// scratch over the same frozen prefix.
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
// zone-map block size (values per block; <=0 selects the 1024 default
// that sharedLevel.stats uses).
func NewVersioned(maxLevels, blockLen int) *Versioned {
	if blockLen <= 0 {
		blockLen = 1024
	}
	return &Versioned{maxLevels: maxLevels, blockLen: blockLen, cache: make(map[verKey]*Shared)}
}

func ceilDiv(n, d int) int { return (n + d - 1) / d }

// levelsFor reports the highest stored level for n base rows, matching
// BuildShared's stopping rule: level i exists iff i <= maxLevels and the
// previous level holds at least 2*minLen entries.
func (v *Versioned) levelsFor(n int) int {
	const minLen = 64
	top := 0
	prevLen := n
	for i := 1; i <= v.maxLevels; i++ {
		if prevLen/2 < minLen {
			break
		}
		top = i
		prevLen = ceilDiv(prevLen, 2)
	}
	return top
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
	isInt := base.Type() != storage.Float64
	if len(v.tails) == 0 {
		t0 := &levelTail{stride: 1, firstNF: math.MaxInt}
		if isInt {
			t0.iprefix = []int64{0}
		} else {
			t0.prefix = []float64{0}
		}
		v.tails = append(v.tails, t0)
	}
	top := v.levelsFor(rows)
	for li := len(v.tails); li <= top; li++ {
		t := &levelTail{stride: 1 << li, col: base.EmptyLike(), firstNF: math.MaxInt}
		if isInt {
			t.iprefix = []int64{0}
		} else {
			t.prefix = []float64{0}
		}
		v.tails = append(v.tails, t)
	}
	for li, t := range v.tails {
		levelLen := ceilDiv(rows, t.stride)
		col := t.col // level values; base for level 0
		// Reserve each array's growth once: after a compaction restarts
		// the tails a level grows by its whole length in one call, and
		// append's doubling would copy it several times over.
		if li == 0 {
			col = base
		} else {
			col.Grow(levelLen - col.Len())
			for k := col.Len(); k < levelLen; k++ {
				col.AppendAt(base, k*t.stride)
			}
		}
		if isInt {
			t.iprefix = slices.Grow(t.iprefix, levelLen+1-len(t.iprefix))
			for k := len(t.iprefix) - 1; k < levelLen; k++ {
				t.iprefix = append(t.iprefix, t.iprefix[len(t.iprefix)-1]+col.Int(k))
			}
		} else {
			t.prefix = slices.Grow(t.prefix, levelLen+1-len(t.prefix))
			acc := t.prefix[len(t.prefix)-1]
			for k := len(t.prefix) - 1; k < levelLen; k++ {
				if f := col.Float(k); f-f == 0 {
					acc += f
				} else {
					t.firstNF = min(t.firstNF, k)
				}
				t.prefix = append(t.prefix, acc)
			}
		}
		if blocks := levelLen/v.blockLen - len(t.blockMin); blocks > 0 {
			t.blockMin = slices.Grow(t.blockMin, blocks)
			t.blockMax = slices.Grow(t.blockMax, blocks)
		}
		for b := len(t.blockMin); (b+1)*v.blockLen <= levelLen; b++ {
			lo, hi := b*v.blockLen, (b+1)*v.blockLen
			min, max, _ := col.MinMaxRange(lo, hi)
			t.blockMin = append(t.blockMin, min)
			t.blockMax = append(t.blockMax, max)
			if !isInt {
				var nf storage.NonFinite
				if t.firstNF < hi {
					countNonFinite(&nf, col.Floats()[lo:hi])
				}
				t.blockNF = append(t.blockNF, nf)
			}
		}
	}
	v.baseLen = rows
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

// buildLocked assembles the immutable Shared for rows base values. The
// sharedLevels are pre-seeded with the chain's statistics (their
// single-flight build is consumed up front), so attached sessions never
// trigger a from-scratch stats build. A version is built after every
// append a reader sees, so each kind of part is allocated once for all
// levels, not once per level.
func (v *Versioned) buildLocked(base *storage.Column, rows int) (*Shared, error) {
	top := v.levelsFor(rows)
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
