// Package index provides per-sample-level sorted indexes (paper §2.6
// "Indexing"): dbTouch "can maintain a separate index for each sample
// level, treating each copy separately". An index turns the slide gesture
// into an index scan — sliding maps screen position to *rank* in value
// order instead of position in storage order — and supports value-range
// lookups for predicates. Indexes build lazily on first use so untouched
// levels cost nothing, in the spirit of adaptive indexing.
package index

import (
	"fmt"
	"sort"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// Sorted is a value-ordered permutation of one column (one sample level).
type Sorted struct {
	col *storage.Column
	// perm[rank] = position of the rank-th smallest value.
	perm []int
	// built tracks lazy construction.
	built bool
}

// New returns an unbuilt index over col.
func New(col *storage.Column) *Sorted {
	return &Sorted{col: col}
}

// Built reports whether the index has been materialized.
func (s *Sorted) Built() bool { return s.built }

// Build materializes the index, charging one read per value to tracker
// plus O(n log n) comparisons at warm-read cost (sorting is in-memory
// work over data already fetched).
func (s *Sorted) Build(tracker *iomodel.Tracker) {
	if s.built {
		return
	}
	n := s.col.Len()
	s.perm = make([]int, n)
	for i := range s.perm {
		s.perm[i] = i
		if tracker != nil {
			tracker.Access(i)
		}
	}
	col := s.col
	sort.SliceStable(s.perm, func(a, b int) bool {
		return col.Float(s.perm[a]) < col.Float(s.perm[b])
	})
	s.built = true
}

// Len reports the indexed value count.
func (s *Sorted) Len() int { return s.col.Len() }

// PositionOfRank returns the storage position holding the rank-th
// smallest value. The index must be built.
func (s *Sorted) PositionOfRank(rank int) (int, error) {
	if !s.built {
		return 0, fmt.Errorf("index: not built")
	}
	if rank < 0 || rank >= len(s.perm) {
		return 0, fmt.Errorf("index: rank %d out of range [0,%d)", rank, len(s.perm))
	}
	return s.perm[rank], nil
}

// ValueAtRank reads the rank-th smallest value, charging the read.
func (s *Sorted) ValueAtRank(rank int, tracker *iomodel.Tracker) (float64, int, error) {
	pos, err := s.PositionOfRank(rank)
	if err != nil {
		return 0, 0, err
	}
	if tracker != nil {
		tracker.Access(pos)
	}
	return s.col.Float(pos), pos, nil
}

// RankOf returns the smallest rank whose value is >= v (a lower bound),
// in [0, Len()]. Binary search touches O(log n) values.
func (s *Sorted) RankOf(v float64, tracker *iomodel.Tracker) (int, error) {
	if !s.built {
		return 0, fmt.Errorf("index: not built")
	}
	lo := sort.Search(len(s.perm), func(i int) bool {
		if tracker != nil {
			tracker.Access(s.perm[i])
		}
		return s.col.Float(s.perm[i]) >= v
	})
	return lo, nil
}

// Range returns the storage positions of all values in [lo, hi],
// charging the binary searches plus one read per emitted position.
func (s *Sorted) Range(lo, hi float64, tracker *iomodel.Tracker) ([]int, error) {
	if !s.built {
		return nil, fmt.Errorf("index: not built")
	}
	if hi < lo {
		return nil, nil
	}
	from, err := s.RankOf(lo, tracker)
	if err != nil {
		return nil, err
	}
	out := []int{}
	for r := from; r < len(s.perm); r++ {
		pos := s.perm[r]
		if tracker != nil {
			tracker.Access(pos)
		}
		if s.col.Float(pos) > hi {
			break
		}
		out = append(out, pos)
	}
	return out, nil
}

// AddRankRange feeds the values at ranks [lo, hi) into add in rank order,
// charging one read per rank, and reports how many values were fed — the
// span kernel for value-order slides (one call per rank window instead of
// a ValueAtRank round trip per rank). Ranks clamp to [0, Len()).
func (s *Sorted) AddRankRange(lo, hi int, tracker *iomodel.Tracker, add func(float64)) int {
	if !s.built {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.perm) {
		hi = len(s.perm)
	}
	for r := lo; r < hi; r++ {
		pos := s.perm[r]
		if tracker != nil {
			tracker.Access(pos)
		}
		add(s.col.Float(pos))
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Registry lazily builds and caches one Sorted per sample level.
type Registry struct {
	indexes map[int]*Sorted
	builds  int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{indexes: make(map[int]*Sorted)}
}

// For returns the index for level, building it on first use against col
// and charging construction to tracker.
func (r *Registry) For(level int, col *storage.Column, tracker *iomodel.Tracker) *Sorted {
	idx, ok := r.indexes[level]
	if !ok {
		idx = New(col)
		r.indexes[level] = idx
	}
	if !idx.Built() {
		idx.Build(tracker)
		r.builds++
	}
	return idx
}
