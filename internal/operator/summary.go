package operator

// Summarizer computes interactive summaries (paper §2.7): when a slide
// registers position p mapping to tuple idp, dbTouch scans all entries in
// [idp−k, idp+k] and returns a single aggregate value. K can be tuned by
// the user; the aggregation defaults to average, "a good default choice".
type Summarizer struct {
	// K is the half-window: 2K+1 values per touch (clamped at the column
	// ends). K=0 degenerates to a plain scan of one value.
	K int
	// Kind is the window aggregation function.
	Kind AggKind
}

// Window returns the clamped window [lo, hi) around id for a column of n
// tuples.
func (s Summarizer) Window(id, n int) (lo, hi int) {
	lo = id - s.K
	hi = id + s.K + 1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
