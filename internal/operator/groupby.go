package operator

import (
	"math"
	"sort"
	"strconv"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// IncrementalGroupBy maintains per-group running aggregates fed one tuple
// — or one contiguous tuple span — per touch. Like the symmetric join, it
// is non-blocking: the current group table is always presentable,
// refining as the gesture covers more tuples (paper §2.9: "the same is
// true for hash-based grouping").
//
// Groups are keyed internally by a typed 64-bit code (dictionary code,
// raw integer, float bits, or bool bit) so the hot path hashes a word
// instead of materializing a string per tuple; display names render once
// per group and match storage.Value.String exactly.
type IncrementalGroupBy struct {
	keyCol *storage.Column
	valCol *storage.Column
	kind   AggKind
	groups map[int64]*groupEntry
	// seen is a bitset over tuple ids; seenCount tracks its population.
	seen      []uint64
	seenCount int
}

type groupEntry struct {
	name string
	agg  *RunningAgg
}

// NewIncrementalGroupBy groups valCol by keyCol with the given aggregate.
func NewIncrementalGroupBy(keyCol, valCol *storage.Column, kind AggKind) *IncrementalGroupBy {
	return &IncrementalGroupBy{
		keyCol: keyCol,
		valCol: valCol,
		kind:   kind,
		groups: make(map[int64]*groupEntry),
		seen:   make([]uint64, (keyCol.Len()+63)/64),
	}
}

// Seen reports whether tuple id has already been absorbed.
func (g *IncrementalGroupBy) Seen(id int) bool {
	if id < 0 || id >= g.keyCol.Len() {
		return false
	}
	return g.seen[id>>6]&(1<<(uint(id)&63)) != 0
}

func (g *IncrementalGroupBy) markSeen(id int) {
	g.seen[id>>6] |= 1 << (uint(id) & 63)
	g.seenCount++
}

// keyCode computes the typed 64-bit group code of tuple id.
func (g *IncrementalGroupBy) keyCode(id int) int64 {
	switch g.keyCol.Type() {
	case storage.Float64:
		return int64(math.Float64bits(g.keyCol.Floats()[id]))
	default:
		// Int64 values, bool bits, and dictionary codes are already
		// distinct 64-bit codes.
		return g.keyCol.Int(id)
	}
}

// keyName renders the display name of tuple id's group, matching
// storage.Value.String for the key cell.
func (g *IncrementalGroupBy) keyName(id int) string {
	switch g.keyCol.Type() {
	case storage.Int64:
		return strconv.FormatInt(g.keyCol.Int(id), 10)
	case storage.Float64:
		return strconv.FormatFloat(g.keyCol.Floats()[id], 'g', -1, 64)
	case storage.Bool:
		return strconv.FormatBool(g.keyCol.Int(id) != 0)
	default:
		return g.keyCol.Dict().Lookup(int32(g.keyCol.Int(id)))
	}
}

// entryFor returns (creating if needed) the group of tuple id.
func (g *IncrementalGroupBy) entryFor(id int) *groupEntry {
	code := g.keyCode(id)
	e, ok := g.groups[code]
	if !ok {
		e = &groupEntry{name: g.keyName(id), agg: NewRunningAgg(g.kind)}
		g.groups[code] = e
	}
	return e
}

// PushRange absorbs every not-yet-seen tuple in [lo, hi) in ascending
// order. Key and value reads are charged per contiguous run of fresh
// tuples through the trackers' ranged accounting, so the virtual cost
// matches a per-tuple loop while the bookkeeping runs per block. It
// reports how many tuples were newly absorbed.
func (g *IncrementalGroupBy) PushRange(lo, hi int, keyTracker, valTracker *iomodel.Tracker) int {
	if lo < 0 {
		lo = 0
	}
	if n := g.keyCol.Len(); hi > n {
		hi = n
	}
	absorbed := 0
	runStart := -1
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		if keyTracker != nil {
			keyTracker.AccessRange(runStart, end)
		}
		if valTracker != nil {
			valTracker.AccessRange(runStart, end)
		}
		runStart = -1
	}
	for id := lo; id < hi; id++ {
		if g.Seen(id) {
			flush(id)
			continue
		}
		if runStart < 0 {
			runStart = id
		}
		g.markSeen(id)
		e := g.entryFor(id)
		e.agg.Add(g.valCol.Float(id))
		absorbed++
	}
	flush(hi)
	return absorbed
}

// Rebind swaps the group-by onto newer (longer) snapshot views of the
// same columns, growing the seen bitset to cover the new tuples. Group
// state and absorbed tuples carry over: append-only growth never moves
// an already-absorbed id, so the bitset stays valid.
func (g *IncrementalGroupBy) Rebind(keyCol, valCol *storage.Column) {
	g.keyCol = keyCol
	g.valCol = valCol
	need := (keyCol.Len() + 63) / 64
	for len(g.seen) < need {
		g.seen = append(g.seen, 0)
	}
}

// GroupOf reports the current state of tuple id's group without charging
// reads (the caller just absorbed the tuple) and without creating it.
func (g *IncrementalGroupBy) GroupOf(id int) (key string, value float64, ok bool) {
	if id < 0 || id >= g.keyCol.Len() {
		return "", 0, false
	}
	e, found := g.groups[g.keyCode(id)]
	if !found {
		return "", 0, false
	}
	return e.name, e.agg.Value(), true
}

// Group reports one group's current state.
type Group struct {
	Key   string
	Value float64
	N     int64
}

// Groups returns the current group table sorted by key.
func (g *IncrementalGroupBy) Groups() []Group {
	out := make([]Group, 0, len(g.groups))
	for _, e := range g.groups {
		out = append(out, Group{Key: e.name, Value: e.agg.Value(), N: e.agg.N()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SeenTuples reports how many distinct tuples have been absorbed.
func (g *IncrementalGroupBy) SeenTuples() int { return g.seenCount }
