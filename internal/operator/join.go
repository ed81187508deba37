package operator

import (
	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// JoinMatch reports one joined pair of tuple identifiers.
type JoinMatch struct {
	LeftID  int
	RightID int
	// Key is the join key value the pair matched on.
	Key storage.Value
}

// SymmetricHashJoin is the non-blocking join dbTouch needs (paper §2.9
// "Joins"): because the gesture — not the engine — decides which tuples
// arrive, neither input can be designated the build side up front. The
// operator keeps a hash table per side; each pushed tuple is inserted
// into its own side's table and probed against the other, so matches
// stream out as touches arrive and the user never waits for a build
// phase.
type SymmetricHashJoin struct {
	left     *storage.Column
	right    *storage.Column
	leftTab  map[float64][]int
	rightTab map[float64][]int
	// seenLeft/seenRight (bitsets over tuple ids) avoid double-inserting
	// a tuple the gesture revisits (back-and-forth slides walk the same
	// ids repeatedly).
	seenLeft  []uint64
	seenRight []uint64
	nLeft     int
	nRight    int
	matches   int64
}

// NewSymmetricHashJoin joins left and right on value equality.
func NewSymmetricHashJoin(left, right *storage.Column) *SymmetricHashJoin {
	return &SymmetricHashJoin{
		left:      left,
		right:     right,
		leftTab:   make(map[float64][]int),
		rightTab:  make(map[float64][]int),
		seenLeft:  make([]uint64, (left.Len()+63)/64),
		seenRight: make([]uint64, (right.Len()+63)/64),
	}
}

func seenBit(seen []uint64, id int) bool { return seen[id>>6]&(1<<(uint(id)&63)) != 0 }

// RebindSide swaps one side's column for a newer (longer) snapshot view,
// growing that side's seen bitset. Hash tables and the match count carry
// over: append-only growth never moves an already-inserted id.
func (j *SymmetricHashJoin) RebindSide(isLeft bool, col *storage.Column) {
	grow := func(seen []uint64, n int) []uint64 {
		for len(seen) < (n+63)/64 {
			seen = append(seen, 0)
		}
		return seen
	}
	if isLeft {
		j.left = col
		j.seenLeft = grow(j.seenLeft, col.Len())
	} else {
		j.right = col
		j.seenRight = grow(j.seenRight, col.Len())
	}
}

// PushLeft feeds tuple id of the left input, charging the read to
// tracker, and returns any new matches against right tuples seen so far.
func (j *SymmetricHashJoin) PushLeft(id int, tracker *iomodel.Tracker) []JoinMatch {
	return j.push(id, true, tracker, nil)
}

// PushRight feeds tuple id of the right input.
func (j *SymmetricHashJoin) PushRight(id int, tracker *iomodel.Tracker) []JoinMatch {
	return j.push(id, false, tracker, nil)
}

// PushRange feeds every not-yet-seen tuple of one side in [lo, hi) in
// ascending order — the span version of PushLeft/PushRight. Reads are
// charged per contiguous run of fresh tuples through the tracker's ranged
// accounting (identical virtual cost to a per-tuple loop), and all new
// matches are returned in push order. isLeft selects the side.
func (j *SymmetricHashJoin) PushRange(lo, hi int, isLeft bool, tracker *iomodel.Tracker) []JoinMatch {
	col := j.right
	if isLeft {
		col = j.left
	}
	if lo < 0 {
		lo = 0
	}
	if n := col.Len(); hi > n {
		hi = n
	}
	seen := j.seenRight
	if isLeft {
		seen = j.seenLeft
	}
	var out []JoinMatch
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 {
			if tracker != nil {
				tracker.AccessRange(runStart, end)
			}
			runStart = -1
		}
	}
	for id := lo; id < hi; id++ {
		if seenBit(seen, id) {
			flush(id)
			continue
		}
		if runStart < 0 {
			runStart = id
		}
		out = j.push(id, isLeft, nil, out)
	}
	flush(hi)
	return out
}

// push inserts one fresh tuple into its side's table, probes the other
// side, and appends any matches to out. A non-nil tracker charges the
// read (per-tuple callers); span callers charge ranges themselves and
// pass nil.
func (j *SymmetricHashJoin) push(id int, isLeft bool, tracker *iomodel.Tracker, out []JoinMatch) []JoinMatch {
	col, seen, own, other := j.right, j.seenRight, j.rightTab, j.leftTab
	if isLeft {
		col, seen, own, other = j.left, j.seenLeft, j.leftTab, j.rightTab
	}
	if id < 0 || id >= col.Len() || seenBit(seen, id) {
		return out
	}
	seen[id>>6] |= 1 << (uint(id) & 63)
	if isLeft {
		j.nLeft++
	} else {
		j.nRight++
	}
	if tracker != nil {
		tracker.Access(id)
	}
	key := col.Float(id)
	own[key] = append(own[key], id)
	partners := other[key]
	if len(partners) == 0 {
		return out
	}
	for _, p := range partners {
		m := JoinMatch{Key: col.Value(id)}
		if isLeft {
			m.LeftID, m.RightID = id, p
		} else {
			m.LeftID, m.RightID = p, id
		}
		out = append(out, m)
	}
	j.matches += int64(len(partners))
	return out
}

// Matches reports the total matches emitted so far.
func (j *SymmetricHashJoin) Matches() int64 { return j.matches }

// BlockingHashJoin is the classic build-then-probe hash join used by the
// traditional baseline: it consumes the entire build side before emitting
// anything — exactly the behaviour the paper argues breaks interactivity.
type BlockingHashJoin struct {
	table map[float64][]int
	built bool
}

// NewBlockingHashJoin returns an empty blocking join.
func NewBlockingHashJoin() *BlockingHashJoin {
	return &BlockingHashJoin{table: make(map[float64][]int)}
}

// Build consumes the whole build column, charging every read.
func (j *BlockingHashJoin) Build(build *storage.Column, tracker *iomodel.Tracker) {
	for i := 0; i < build.Len(); i++ {
		if tracker != nil {
			tracker.Access(i)
		}
		key := build.Float(i)
		j.table[key] = append(j.table[key], i)
	}
	j.built = true
}

// Probe matches one probe-side tuple; it must not be called before Build
// completes (the blocking property under test) and returns the matching
// build-side ids.
func (j *BlockingHashJoin) Probe(probe *storage.Column, id int, tracker *iomodel.Tracker) []int {
	if !j.built {
		return nil
	}
	if tracker != nil {
		tracker.Access(id)
	}
	return j.table[probe.Float(id)]
}
